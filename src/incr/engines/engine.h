// IvmEngine<R>: the unified maintenance-engine interface.
//
// Every maintenance engine in the library — the four Fig. 4 strategies,
// the mixed static/dynamic engine (§4.5), the shattered small-domain
// engine (§4.4), the cascade engine (§4.2), the CQAP access engine (§4.3)
// and the insert-only engine (§4.6) — implements this interface, so
// benches, examples, and the REPL can drive any of them uniformly:
//
//   * Update(rel, t, d): a single-tuple delta, routed by relation name to
//     every atom occurrence (realizing the product rule for self-joins);
//   * ApplyBatch(deltas): a batch of named deltas; the default forwards
//     tuple-at-a-time, engines with a bulk path (node-at-a-time view-tree
//     propagation) override it;
//   * Enumerate(sink): the engine's primary output. Engines that only
//     maintain an aggregate, or that need per-request inputs (CQAP access
//     requests), return 0 and expose their richer native calls alongside.
//
// The public entry points are non-virtual instrumented wrappers; engines
// implement the protected *Impl virtuals. With obs enabled, every engine
// gets a per-update latency histogram ("engine.<name>.update_ns"), batch
// latency and size ("engine.<name>.batch_ns" / ".batch_deltas"), and an
// enumeration-delay histogram ("engine.<name>.enum_delay_ns" — total
// enumeration time divided by tuples produced, the paper's constant-delay
// claim made measurable). With obs disabled each wrapper is one predicted
// branch in front of the virtual call.
#ifndef INCR_ENGINES_ENGINE_H_
#define INCR_ENGINES_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "incr/core/view_tree.h"
#include "incr/data/delta.h"
#include "incr/engines/engine_options.h"
#include "incr/obs/explain.h"
#include "incr/obs/export.h"
#include "incr/obs/metrics.h"
#include "incr/obs/recorder.h"
#include "incr/query/query.h"
#include "incr/ring/ring.h"
#include "incr/store/serde.h"
#include "incr/util/status.h"
#include "incr/util/thread_pool.h"

namespace incr {

/// Calls `fn(atom_id)` for every atom of relation `rel`; returns how many
/// matched. The single name-to-atom routing helper every engine shares.
template <typename Fn>
size_t ForEachAtomNamed(const Query& q, const std::string& rel, Fn&& fn) {
  size_t matched = 0;
  for (size_t a = 0; a < q.atoms().size(); ++a) {
    if (q.atoms()[a].relation == rel) {
      fn(a);
      ++matched;
    }
  }
  return matched;
}

/// Merges a named-delta batch into an atom-addressed DeltaBatch, fanning
/// each delta out to every atom occurrence of its relation (the product
/// rule for self-joins). When `tree` runs parallel, the merge itself is
/// parallel too: the input is cut into a fixed number of contiguous chunks,
/// each chunk builds a thread-local DeltaBatch, and the chunks merge in
/// input order. Chunks pre-sum their own deltas, so the payloads equal a
/// sequential merge's when ring addition is associative (see MergeFrom).
template <RingType R>
DeltaBatch<R> MergeNamedBatch(const ViewTree<R>& tree,
                              std::span<const Delta<R>> batch) {
  const Query& q = tree.query();
  DeltaBatch<R> merged(q.atoms().size());
  auto add_range = [&](DeltaBatch<R>* out, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Delta<R>& e = batch[i];
      size_t n = ForEachAtomNamed(
          q, e.relation, [&](size_t a) { out->Add(a, e.tuple, e.delta); });
      INCR_CHECK(n > 0);
    }
  };
  ThreadPool* pool = tree.pool();
  const size_t kChunks = kParallelShards;
  if (pool == nullptr || batch.size() < 2 * kChunks) {
    add_range(&merged, 0, batch.size());
    return merged;
  }
  std::vector<DeltaBatch<R>> locals(kChunks, DeltaBatch<R>(q.atoms().size()));
  size_t per = batch.size() / kChunks;
  size_t extra = batch.size() % kChunks;
  pool->ParallelFor(kChunks, [&](size_t c) {
    size_t begin = c * per + std::min(c, extra);
    size_t end = begin + per + (c < extra ? 1 : 0);
    add_range(&locals[c], begin, end);
  });
  for (const DeltaBatch<R>& local : locals) merged.MergeFrom(local);
  return merged;
}

/// Shared Configure prelude: the observability kill-switch override and
/// the periodic Prometheus file exporter (obs/export.h). Every engine's
/// Configure runs this before interpreting the rest of the options, so
/// the remaining configuration is observed (or not) per the caller's
/// wish and a metrics_path takes effect no matter which engine variant
/// the caller picked.
inline void ApplyObsOptions(const EngineOptions& opts) {
  if (opts.obs.has_value()) obs::SetEnabled(*opts.obs);
  obs::ConfigureExporter(opts.metrics_path, opts.metrics_interval_ms);
}

/// Appends one EXPLAIN tree describing `tree` to the report — the helper
/// every view-tree-backed engine's ExplainImpl shares.
template <RingType R>
void DescribeTreeForExplain(const ViewTree<R>& tree, const std::string& label,
                            obs::ExplainReport* out, bool analyze) {
  obs::ExplainTree t;
  t.label = label;
  tree.DescribeTo(&t, analyze);
  out->trees.push_back(std::move(t));
}

template <RingType R>
class IvmEngine {
 public:
  using RV = typename R::Value;
  using Sink = std::function<void(const Tuple&, const RV&)>;
  using Batch = std::span<const Delta<R>>;

  virtual ~IvmEngine() = default;

  // Movable, but the lazily-resolved metric handles (and their once_flag)
  // deliberately do not transfer: the destination re-resolves them on its
  // first instrumented call. Engines are only moved during construction,
  // before any concurrent use, so dropping the caches is safe.
  IvmEngine() = default;
  IvmEngine(IvmEngine&&) noexcept {}
  IvmEngine& operator=(IvmEngine&&) noexcept { return *this; }

  virtual const char* name() const = 0;

  /// Applies a single-tuple delta to every atom of relation `rel`.
  /// Instrumented facade over UpdateImpl: records the per-update latency
  /// histogram. No trace span — single updates are too fine-grained for
  /// span-per-call (the histogram carries the distribution instead).
  void Update(const std::string& rel, const Tuple& t, const RV& d) {
    if (!obs::Enabled()) {
      UpdateImpl(rel, t, d);
      return;
    }
    EnsureObsHandles();
    const uint64_t t0 = obs::NowNs();
    UpdateImpl(rel, t, d);
    update_ns_->Record(obs::NowNs() - t0);
  }

  /// Applies a batch of deltas (facade over ApplyBatchImpl): one trace
  /// span plus batch latency/size metrics per call.
  void ApplyBatch(Batch batch) {
    if (!obs::Enabled()) {
      ApplyBatchImpl(batch);
      return;
    }
    EnsureObsHandles();
    const uint64_t t0 = obs::NowNs();
    obs::SpanBegin(batch_span_, t0, batch.size());
    ApplyBatchImpl(batch);
    const uint64_t dur = obs::NowNs() - t0;
    batch_ns_->Record(dur);
    batch_deltas_->Add(batch.size());
    obs::SpanEnd(batch_span_, t0, dur, batch.size());
  }

  /// Enumerates the engine's current output; returns the number of tuples.
  /// Pass a null sink to only count. Aggregate-only and per-request
  /// engines return 0 (their native calls expose the richer output).
  /// Facade over EnumerateImpl: records total time and per-tuple delay.
  size_t Enumerate(const Sink& sink) {
    if (!obs::Enabled()) return EnumerateImpl(sink);
    EnsureObsHandles();
    const uint64_t t0 = obs::NowNs();
    obs::SpanBegin(enum_span_, t0, 0);
    size_t n = EnumerateImpl(sink);
    const uint64_t dur = obs::NowNs() - t0;
    enum_ns_->Record(dur);
    if (n > 0) enum_delay_ns_->Record(dur / n);
    obs::SpanEnd(enum_span_, t0, dur, n);
    return n;
  }

  /// Enumerates a consistent snapshot of the engine's output; returns the
  /// number of tuples. Engines configured with snapshot_reads serve this
  /// from an epoch-pinned immutable version, so it is safe to call from
  /// any number of reader threads while ONE maintainer thread keeps
  /// applying updates. The default implementation falls back to exclusive
  /// EnumerateImpl — correct results, but callers must then synchronize
  /// externally as before. No trace span: this is the hot concurrent read
  /// path, and the histograms (thread-safe) carry the distribution.
  size_t EnumerateSnapshot(const Sink& sink) {
    if (!obs::Enabled()) return EnumerateSnapshotImpl(sink);
    EnsureObsHandles();
    const uint64_t t0 = obs::NowNs();
    size_t n = EnumerateSnapshotImpl(sink);
    const uint64_t dur = obs::NowNs() - t0;
    snapshot_enum_ns_->Record(dur);
    if (n > 0) snapshot_enum_delay_ns_->Record(dur / n);
    return n;
  }

  /// EXPLAIN [ANALYZE] report for this engine (obs/explain.h): the
  /// registered query's Def. 4.2 classification, per view-tree node the
  /// predicted cost class, and — with analyze — live NodeObs stats joined
  /// onto the tree plus engine-level totals from the metrics registry.
  /// Non-virtual facade over ExplainImpl, mirroring Update/ApplyBatch.
  /// Note the registry totals are per engine *name* (process-global),
  /// while tree stats are per instance: reconciliation tests reset the
  /// registry first.
  obs::ExplainReport Explain(bool analyze = false) {
    obs::ExplainReport report;
    report.engine = name();
    report.ring = store::RingSerdeName<R>();
    report.analyze = analyze;
    ExplainImpl(&report, analyze);
    if (analyze) {
      for (const obs::ExplainTree& t : report.trees) {
        for (const obs::ExplainNode& n : t.nodes) {
          report.totals.node_apply_ns += n.apply_ns;
        }
      }
      if (obs::kObsCompiledIn) {
        auto& reg = obs::MetricsRegistry::Global();
        const std::string prefix = std::string("engine.") + name() + ".";
        const obs::HistogramStats u =
            reg.GetHistogram(prefix + "update_ns")->Stats();
        const obs::HistogramStats b =
            reg.GetHistogram(prefix + "batch_ns")->Stats();
        report.totals.updates = u.count;
        report.totals.update_ns = u.sum;
        report.totals.batches = b.count;
        report.totals.batch_ns = b.sum;
        report.totals.batch_deltas =
            reg.GetCounter(prefix + "batch_deltas")->Value();
        report.totals.present = true;
      }
    }
    return report;
  }

  /// Applies an options struct: observability override first (so the
  /// remaining configuration is observed or not per the caller's wish),
  /// then whatever fields the engine understands (thread/shard counts,
  /// snapshots, durability). This is the ONE configuration entry point of
  /// the public API — construct an EngineOptions (or start from FromEnv())
  /// and pass it here or to the engine's (tree, opts) constructor. The
  /// per-knob setters that used to sit beside it (SetThreads and friends)
  /// are gone; engines without a bulk path ignore the parallelism fields.
  virtual void Configure(const EngineOptions& opts) { ApplyObsOptions(opts); }

  /// Serializes the engine's full dynamic state for checkpointing. May
  /// force pending work (lazy engines flush their buffers) — hence
  /// non-const. Engines without checkpoint support keep the default and
  /// remain durable via full-log replay only.
  virtual Status DumpState(store::ByteWriter& w) {
    (void)w;
    return Status::Unimplemented(std::string(name()) +
                                 " does not support state dump");
  }

  /// Restores state produced by DumpState on an engine built over the same
  /// query/plan. Existing state is replaced.
  virtual Status LoadState(store::ByteReader& r) {
    (void)r;
    return Status::Unimplemented(std::string(name()) +
                                 " does not support state load");
  }

 protected:
  /// Engine implementations. ApplyBatchImpl's default is a sequential
  /// per-tuple loop over UpdateImpl (not Update — the facade must not
  /// count each batched tuple as a standalone update).
  virtual void UpdateImpl(const std::string& rel, const Tuple& t,
                          const RV& d) = 0;
  virtual void ApplyBatchImpl(Batch batch) {
    for (const Delta<R>& e : batch) UpdateImpl(e.relation, e.tuple, e.delta);
  }
  virtual size_t EnumerateImpl(const Sink& sink) = 0;

  /// Snapshot-read hook. Engines with a real snapshot path (view-tree
  /// family) override; the default degrades to the exclusive enumeration.
  virtual size_t EnumerateSnapshotImpl(const Sink& sink) {
    return EnumerateImpl(sink);
  }

  /// EXPLAIN hook: fill classification, trees, notes, threads. All ten
  /// library engines override; the default covers ad-hoc test doubles.
  virtual void ExplainImpl(obs::ExplainReport* out, bool analyze) {
    (void)analyze;
    out->notes.push_back(std::string(name()) +
                         " does not expose plan introspection");
  }

 private:
  /// Lazily resolves the per-engine metric handles ("engine.<name>.*") —
  /// lazy because name() is virtual and unavailable during construction.
  /// call_once because EnumerateSnapshot may race with the maintainer
  /// thread's first instrumented update.
  void EnsureObsHandles() {
    std::call_once(obs_once_, [&] {
      auto& r = obs::MetricsRegistry::Global();
      const std::string prefix = std::string("engine.") + name() + ".";
      update_ns_ = r.GetHistogram(prefix + "update_ns");
      batch_ns_ = r.GetHistogram(prefix + "batch_ns");
      batch_deltas_ = r.GetCounter(prefix + "batch_deltas");
      enum_ns_ = r.GetHistogram(prefix + "enum_ns");
      enum_delay_ns_ = r.GetHistogram(prefix + "enum_delay_ns");
      snapshot_enum_ns_ = r.GetHistogram(prefix + "snapshot_enum_ns");
      snapshot_enum_delay_ns_ =
          r.GetHistogram(prefix + "snapshot_enum_delay_ns");
      batch_span_ = obs::InternSpan(prefix + "apply_batch", "deltas");
      enum_span_ = obs::InternSpan(prefix + "enumerate", "tuples");
    });
  }

  std::once_flag obs_once_;
  obs::Histogram* update_ns_ = nullptr;
  obs::Histogram* batch_ns_ = nullptr;
  obs::Counter* batch_deltas_ = nullptr;
  obs::Histogram* enum_ns_ = nullptr;
  obs::Histogram* enum_delay_ns_ = nullptr;
  obs::Histogram* snapshot_enum_ns_ = nullptr;
  obs::Histogram* snapshot_enum_delay_ns_ = nullptr;
  obs::SpanId batch_span_ = 0;
  obs::SpanId enum_span_ = 0;
};

/// The plainest engine: a bare view tree driven eagerly. Unlike
/// EagerFactStrategy it does not require an enumerable plan — Enumerate()
/// degrades to 0 for aggregate-only plans — which makes it the universal
/// fallback for drivers (the REPL uses it for non-hierarchical queries
/// maintained under a path order).
template <RingType R>
class ViewTreeEngine : public IvmEngine<R> {
 public:
  using RV = typename R::Value;
  using typename IvmEngine<R>::Sink;
  using typename IvmEngine<R>::Batch;

  explicit ViewTreeEngine(ViewTree<R> tree) : tree_(std::move(tree)) {}

  ViewTreeEngine(ViewTree<R> tree, const EngineOptions& opts)
      : ViewTreeEngine(std::move(tree)) {
    Configure(opts);
  }

  const char* name() const override { return "view-tree"; }

  void Configure(const EngineOptions& opts) override {
    ApplyObsOptions(opts);
    tree_.SetThreads(opts.threads);
    tree_.SetMorselBytes(opts.morsel_bytes);
    if (opts.snapshot_reads) {
      tree_.EnableSnapshots(opts.max_retained_epochs);
    }
  }

  Status DumpState(store::ByteWriter& w) override {
    tree_.DumpState(w);
    return Status::Ok();
  }

  Status LoadState(store::ByteReader& r) override {
    return tree_.LoadState(r);
  }

  ViewTree<R>& tree() { return tree_; }
  const ViewTree<R>& tree() const { return tree_; }

 protected:
  void UpdateImpl(const std::string& rel, const Tuple& t,
                  const RV& d) override {
    tree_.Update(rel, t, d);
  }

  void ApplyBatchImpl(Batch batch) override {
    // Skip empty calls BEFORE the tree sees them: in snapshot mode a
    // non-empty batch publishes exactly one epoch even when its deltas
    // merge to zero, but an empty call must not publish at all.
    if (batch.empty()) return;
    tree_.ApplyBatch(MergeNamedBatch(tree_, batch));
  }

  size_t EnumerateImpl(const Sink& sink) override {
    if (!tree_.plan().CanEnumerate().ok()) return 0;
    size_t n = 0;
    for (ViewTreeEnumerator<R> it(tree_); it.Valid(); it.Next()) {
      if (sink) sink(it.tuple(), it.payload());
      ++n;
    }
    return n;
  }

  size_t EnumerateSnapshotImpl(const Sink& sink) override {
    if (!tree_.snapshots_enabled()) return EnumerateImpl(sink);
    if (!tree_.plan().CanEnumerate().ok()) return 0;
    ViewTreeSnapshot<R> snap = tree_.Snapshot();
    size_t n = 0;
    for (ViewTreeEnumerator<R> it = snap.Enumerate(); it.Valid(); it.Next()) {
      if (sink) sink(it.tuple(), it.payload());
      ++n;
    }
    return n;
  }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    obs::ClassifyPlan(tree_.plan(), out);
    out->threads = tree_.pool() != nullptr ? tree_.pool()->num_threads() : 1;
    DescribeTreeForExplain(tree_, name(), out, analyze);
  }

 private:
  ViewTree<R> tree_;
};

}  // namespace incr

#endif  // INCR_ENGINES_ENGINE_H_
