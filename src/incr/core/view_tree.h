// ViewTree<R>: the materialized view tree engine (paper §4.1) over a ring R.
//
// Holds the base relation of every atom plus, per variable-order node X, the
// views W_X and M_X described in view_tree_plan.h. Supports:
//
//   * single-tuple updates with bottom-up delta propagation — O(1) per
//     update for q-hierarchical queries under their canonical order
//     (Thm. 4.1), group-scan fallbacks otherwise;
//   * lifting functions per variable (SUM(g(X)) aggregates, the in-DB ML
//     rings of §6);
//   * O(|D|) bulk Rebuild() from loaded base relations (preprocessing);
//   * constant-delay enumeration of the factorized output, with optional
//     bindings (used for CQAP access requests (§4.3) and for delta
//     enumeration in the eager-list strategy);
//   * optional snapshot isolation (EnableSnapshots): one maintainer thread
//     keeps applying batches while any number of reader threads enumerate
//     immutable epoch-tagged versions via Snapshot() — see the
//     "Snapshot isolation" section below and DESIGN.md.
//
// Enumeration correctness relies on non-zero view payloads implying joining
// subtrees below, which holds for rings without zero divisors (Z, reals,
// Boolean) or for databases whose payloads stay "positive" (valid databases
// in the paper's sense).
#ifndef INCR_CORE_VIEW_TREE_H_
#define INCR_CORE_VIEW_TREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "incr/core/view_tree_plan.h"
#include "incr/data/delta.h"
#include "incr/data/relation.h"
#include "incr/data/sharded_relation.h"
#include "incr/obs/explain.h"
#include "incr/obs/metrics.h"
#include "incr/obs/recorder.h"
#include "incr/ring/ring.h"
#include "incr/store/serde.h"
#include "incr/util/check.h"
#include "incr/util/epoch.h"
#include "incr/util/hash.h"
#include "incr/util/status.h"
#include "incr/util/thread_pool.h"

namespace incr {

namespace detail {
// Batch-path metric handles shared by every ViewTree<R> instantiation.
struct ViewTreeMetricHandles {
  obs::Counter* updates;       // single-tuple UpdateAtom calls
  obs::Counter* batches;       // ApplyBatch(DeltaBatch) calls
  obs::Counter* batch_deltas;  // merged deltas entering ApplyBatch
  obs::Histogram* shard_delta_tuples;    // per-shard W-delta bucket sizes
  obs::Histogram* shard_imbalance_x100;  // 100 * max_bucket / mean_bucket
  obs::Counter* snapshot_publishes;  // epoch bumps (snapshot mode)
  obs::Counter* snapshot_recycles;   // retired versions caught up by replay
  obs::Counter* snapshot_clones;     // full deep copies of the head state
  obs::Counter* snapshot_replays;    // logged batches replayed for catch-up
  obs::Gauge* snapshot_versions;     // retained published versions
  obs::Gauge* snapshot_bytes;        // sampled bytes across retained versions
  obs::Histogram* snapshot_clone_ns;  // duration of each deep copy
  obs::Histogram* snapshot_wait_ns;   // writer stalls at the retention cap
  obs::SpanId apply_batch_span;  // viewtree.apply_batch (deltas)
  obs::SpanId node_span;         // viewtree.node, one per node per batch
  obs::SpanId rebuild_span;      // viewtree.rebuild (nodes)
};
inline const ViewTreeMetricHandles& ViewTreeMetrics() {
  static const ViewTreeMetricHandles h = [] {
    auto& r = obs::MetricsRegistry::Global();
    return ViewTreeMetricHandles{
        r.GetCounter("viewtree.updates"),
        r.GetCounter("viewtree.batches"),
        r.GetCounter("viewtree.batch_deltas"),
        r.GetHistogram("viewtree.shard_delta_tuples"),
        r.GetHistogram("viewtree.shard_imbalance_x100"),
        r.GetCounter("viewtree.snapshot_publishes"),
        r.GetCounter("viewtree.snapshot_recycles"),
        r.GetCounter("viewtree.snapshot_clones"),
        r.GetCounter("viewtree.snapshot_replays"),
        r.GetGauge("viewtree.snapshot_versions"),
        r.GetGauge("viewtree.snapshot_bytes"),
        r.GetHistogram("viewtree.snapshot_clone_ns"),
        r.GetHistogram("viewtree.snapshot_wait_ns"),
        obs::InternSpan("viewtree.apply_batch", "deltas"),
        obs::InternSpan("viewtree.node", "node"),
        obs::InternSpan("viewtree.rebuild", "nodes"),
    };
  }();
  return h;
}
}  // namespace detail

template <RingType R>
class ViewTreeEnumerator;

template <RingType R>
class ViewTreeSnapshot;

/// Binding of some free variables to fixed values (CQAP access requests,
/// delta enumeration). Unbound output variables are iterated.
struct Binding {
  SmallVector<Var, 4> vars;
  Tuple values;

  void Bind(Var v, Value val) {
    vars.push_back(v);
    values.push_back(val);
  }
};

template <RingType R>
class ViewTree {
 public:
  using RV = typename R::Value;
  /// Lifting function g_X: maps an X-value to a ring element (paper §2).
  using Lift = std::function<RV(Value)>;

  /// Builds an engine over an already-compiled plan. A storage context with
  /// a PageStore selects the paged backend for every atom, W and M view
  /// (rings with non-trivially-copyable payloads silently stay on the
  /// heap); batch-path temporaries always stay heap-resident.
  explicit ViewTree(ViewTreePlan plan, StorageContext ctx = {})
      : plan_(std::move(plan)),
        ctx_(std::move(ctx)),
        build_(std::make_unique<TreeState>()) {
    const Query& q = plan_.query();
    TreeState& ts = *build_;
    ts.atoms.reserve(q.atoms().size());
    for (size_t a = 0; a < q.atoms().size(); ++a) {
      ts.atoms.push_back(
          std::make_unique<Relation<R>>(q.atoms()[a].schema, ctx_));
      for (const Schema& key : plan_.atom_indexes()[a]) {
        ts.atoms.back()->AddIndex(key);
      }
    }
    const auto& nodes = plan_.nodes();
    lifts_.resize(nodes.size());
    node_stats_.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      ts.w.push_back(std::make_unique<ShardedRelation<R>>(
          nodes[i].w_schema, nodes[i].key.size(), 1, ctx_));
      ts.w.back()->AddIndex(nodes[i].key);  // index 0: group by key
      ts.m.push_back(std::make_unique<Relation<R>>(nodes[i].key, ctx_));
      for (const Schema& key : plan_.m_indexes()[i]) {
        ts.m.back()->AddIndex(key);
      }
    }
  }

  /// Convenience: canonical variable order (hierarchical queries).
  static StatusOr<ViewTree> Make(const Query& q) {
    auto vo = VariableOrder::Canonical(q);
    if (!vo.ok()) return vo.status();
    return Make(q, *std::move(vo));
  }

  static StatusOr<ViewTree> Make(const Query& q, VariableOrder vo) {
    auto plan = ViewTreePlan::Make(q, vo);
    if (!plan.ok()) return plan.status();
    return ViewTree(*std::move(plan));
  }

  /// Same, selecting the storage backend (heap or buffer-pool paged) from
  /// validated options — the construction path EngineOptions::storage uses.
  static StatusOr<ViewTree> Make(const Query& q, const StorageOptions& so) {
    auto vo = VariableOrder::Canonical(q);
    if (!vo.ok()) return vo.status();
    return Make(q, *std::move(vo), so);
  }

  static StatusOr<ViewTree> Make(const Query& q, VariableOrder vo,
                                 const StorageOptions& so) {
    auto plan = ViewTreePlan::Make(q, vo);
    if (!plan.ok()) return plan.status();
    auto ctx = MakeStorageContext(so);
    if (!ctx.ok()) return ctx.status();
    return ViewTree(*std::move(plan), *std::move(ctx));
  }

  /// The buffer-pool store behind the paged backend; nullptr on the heap
  /// backend (including trees whose ring payload cannot be paged).
  const std::shared_ptr<PageStore>& page_store() const { return ctx_.store; }

  /// Approximate bytes of live view state (atoms, W, M views) across both
  /// heap-resident structures and page storage — the measure the paging
  /// bench's "state >= 4x pool" acceptance bar uses.
  size_t StateBytes() const { return StateBytes(Live()); }

  const ViewTreePlan& plan() const { return plan_; }
  const Query& query() const { return plan_.query(); }

  /// Configures parallel batch maintenance: `threads` total threads
  /// (0 = ThreadPool::DefaultThreads()), data-parallel over kParallelShards
  /// hash shards of each W view. threads == 1 restores the exact
  /// sequential path (single-shard W layout, no pool). W views are
  /// resharded in place — O(total W size) — so call this before bulk work.
  /// Single-tuple Update()s are unaffected either way.
  void SetThreads(size_t threads) {
    // Catch up under the old layout first: the pending replay runs with
    // the shard count it was logged under.
    EnsureBuild();
    if (threads == 0) threads = ThreadPool::DefaultThreads();
    if (threads <= 1) {
      pool_.reset();
    } else {
      pool_ = std::make_unique<ThreadPool>(threads);
    }
    for (auto& w : build_->w) w->Reshard(num_shards());
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetGauge("viewtree.threads")
        ->Set(static_cast<int64_t>(pool_ ? pool_->num_threads() : 1));
    reg.GetGauge("viewtree.shards")->Set(static_cast<int64_t>(num_shards()));
    if (snap_ != nullptr) {
      // The resharded W layout is unreachable by batch replay, so retired
      // versions with the old layout must be cloned away, not recycled.
      snap_->log.clear();
      PublishVersion();
    }
  }

  /// The pool driving parallel batches; nullptr in sequential mode.
  ThreadPool* pool() const { return pool_.get(); }
  /// Shards of each W view: kParallelShards with a pool, else 1.
  size_t num_shards() const { return pool_ ? kParallelShards : 1; }

  /// Morsel granularity of the parallel batch path, in bytes of input
  /// delta entries per morsel (the unit of work-stealing in
  /// ThreadPool::ParallelMorsels). Cache-sized by default. Scheduling
  /// only: results are bit-identical at every morsel size (the morsel
  /// grid fixes emission segment boundaries independent of threads), so
  /// unlike SetThreads this never invalidates snapshot replay logs.
  /// bytes == 0 restores the default.
  static constexpr size_t kDefaultMorselBytes = size_t{1} << 14;
  void SetMorselBytes(size_t bytes) {
    morsel_bytes_ = bytes == 0 ? kDefaultMorselBytes : bytes;
    obs::MetricsRegistry::Global()
        .GetGauge("viewtree.morsel_bytes")
        ->Set(static_cast<int64_t>(morsel_bytes_));
  }
  size_t morsel_bytes() const { return morsel_bytes_; }

  /// Sets the lifting function of variable `v`. Must be called while the
  /// tree is empty (lifted values are baked into the M views).
  void SetLifting(Var v, Lift fn) {
    EnsureBuild();  // a pending replay must run under the old lifts
    int n = plan_.vo().NodeOf(v);
    INCR_CHECK(n >= 0);
    INCR_CHECK(build_->m[static_cast<size_t>(n)]->empty());
    lifts_[static_cast<size_t>(n)] = std::move(fn);
  }

  /// Applies a single-tuple delta to atom `atom_id` and propagates it.
  /// In snapshot mode this is a one-delta batch: it publishes one epoch.
  void UpdateAtom(size_t atom_id, const Tuple& t, const RV& d) {
    if (R::IsZero(d)) return;
    if (snap_ != nullptr) {
      DeltaBatch<R> one(query().atoms().size());
      one.Add(atom_id, t, d);
      ApplyBatch(one);
      return;
    }
    int node = plan_.atom_node()[atom_id];
    Relation<R>& atom = *build_->atoms[atom_id];
    if (obs::Enabled()) {
      detail::ViewTreeMetrics().updates->Inc();
      if (atom.num_indexes() > 0) {
        ++node_stats_[static_cast<size_t>(node)].indexed_writes;
      }
    }
    atom.Apply(t, d);
    const PlanNode& pn = plan_.nodes()[static_cast<size_t>(node)];
    for (size_t k = 0; k < pn.atoms.size(); ++k) {
      if (pn.atoms[k] == atom_id) {
        ProcessDelta(node, pn.atom_programs[k], t, d);
        return;
      }
    }
    INCR_CHECK(false);
  }

  /// Applies a delta to every atom with relation name `rel` (self-joins get
  /// one sequential delta per occurrence, which realizes the product rule
  /// of Eq. (2)). In snapshot mode the occurrences form one batch, so the
  /// whole named update publishes a single epoch.
  void Update(const std::string& rel, const Tuple& t, const RV& d) {
    if (snap_ != nullptr) {
      if (R::IsZero(d)) return;
      DeltaBatch<R> merged(query().atoms().size());
      bool found = false;
      for (size_t a = 0; a < query().atoms().size(); ++a) {
        if (query().atoms()[a].relation == rel) {
          merged.Add(a, t, d);
          found = true;
        }
      }
      INCR_CHECK(found);
      ApplyBatch(merged);
      return;
    }
    bool found = false;
    for (size_t a = 0; a < query().atoms().size(); ++a) {
      if (query().atoms()[a].relation == rel) {
        UpdateAtom(a, t, d);
        found = true;
      }
    }
    INCR_CHECK(found);
  }

  /// A batch of single-tuple deltas. Because payloads live in a ring,
  /// batches commute: applying any permutation of a batch yields the same
  /// state (paper §2's optimization benefit).
  using BatchEntry = AtomDelta<R>;

  /// The naive baseline: one full bottom-up traversal per tuple. Exposed
  /// for benchmarking against the node-at-a-time path below.
  void ApplyBatchPerTuple(std::span<const BatchEntry> batch) {
    for (const BatchEntry& e : batch) UpdateAtom(e.atom, e.tuple, e.delta);
  }

  /// Applies a batch with node-at-a-time propagation: duplicates are
  /// pre-summed per atom, and every affected view-tree node is visited
  /// exactly once, accumulating a grouped delta relation that is handed to
  /// its parent in one step — O(|batch| + affected-view work) instead of
  /// |batch| independent walks. The final state is ring-identical to
  /// sequential per-tuple application (§2 batch commutativity).
  void ApplyBatch(std::span<const BatchEntry> batch) {
    if (batch.size() <= 1) {
      ApplyBatchPerTuple(batch);
      return;
    }
    DeltaBatch<R> merged(query().atoms().size());
    merged.AddAll(batch);
    ApplyBatch(merged);
  }

  /// Same, over an already-merged batch. With SetThreads(>1) this runs the
  /// shard-parallel path; results are ring-identical to the sequential path
  /// and invariant under the thread count (see ProcessNodeBatchParallel).
  /// In snapshot mode the whole batch becomes visible to readers at once:
  /// it is applied to the off-side build state, then published as one
  /// atomic epoch bump — no reader ever sees a half-propagated batch.
  void ApplyBatch(const DeltaBatch<R>& batch) {
    EnsureBuild();
    if (batch.empty()) {
      // Deltas that merged to zero still publish in snapshot mode: the
      // contract is one epoch per ApplyBatch call, so concurrent
      // verifiers can map published epochs to applied batches 1:1. The
      // no-op version costs one publish (recycled like any other).
      if (snap_ != nullptr) {
        snap_->log.emplace_back(snap_->epochs.published() + 1, batch);
        PublishVersion();
      }
      return;
    }
    const bool obs_on = obs::Enabled();
    const auto& m = detail::ViewTreeMetrics();
    uint64_t t0 = 0;
    if (obs_on) {
      m.batches->Inc();
      m.batch_deltas->Add(batch.size());
      t0 = obs::NowNs();
      obs::SpanBegin(m.apply_batch_span, t0, batch.size());
    }
    ApplyBatchTo(batch);
    if (obs_on) {
      obs::SpanEnd(m.apply_batch_span, t0, obs::NowNs() - t0, batch.size());
    }
    if (snap_ != nullptr) {
      snap_->log.emplace_back(snap_->epochs.published() + 1, batch);
      PublishVersion();
    }
  }

  // --------------------------------------------------------------------
  // Snapshot isolation
  //
  // Threading contract: ONE maintainer thread calls the mutating API
  // (Update/ApplyBatch/Rebuild/LoadState/SetThreads/...) and the
  // maintainer-side reads (Aggregate, DumpState, DescribeTo, the live
  // ViewTreeEnumerator, ...); a caller that spreads these over several
  // threads must serialize them all under one lock. Any number of reader
  // threads call Snapshot() and enumerate the returned handles.
  //
  // A mutation first acquires a private build state equal to the head
  // (EnsureBuild), applies itself there and publishes it with a single
  // atomic epoch bump; the build state is then empty until the next
  // mutation, and maintainer-side reads see the head (Live()). Readers pin
  // an epoch (RAII ReadGuard inside the handle) and the maintainer reclaims
  // a retired version only once no reader can still reach it. Retired
  // versions are recycled by replaying the batches they missed (the same
  // delta machinery as live maintenance), so steady-state publishing costs
  // one batch application — not one deep copy — per epoch. The recycle
  // happens at the start of the next mutation, not right after a publish:
  // a reader that pins the head and lets go before the next write leaves
  // the retired version free, and the replay runs just before the next
  // batch touches the same lines.

  /// Switches the tree into snapshot mode and publishes the current state
  /// as the first epoch. `max_retained` caps the retained published
  /// versions (clamped to >= 2: the head plus at least one retirable
  /// version); when the cap is reached and every retained version but the
  /// head is still pinned by readers, the maintainer WAITS at the start of
  /// the next mutation until one is released. Memory cost is up to
  /// max_retained + 1 copies of the tree state (the +1 is the build
  /// state). Calling it again only adjusts `max_retained`.
  void EnableSnapshots(size_t max_retained = 3) {
    if (max_retained < 2) max_retained = 2;
    if (snap_ != nullptr) {
      snap_->max_retained = max_retained;
      return;
    }
    snap_ = std::make_unique<SnapshotCtl>();
    snap_->max_retained = max_retained;
    PublishVersion();
  }

  bool snapshots_enabled() const { return snap_ != nullptr; }

  /// The most recently published epoch (0 when snapshots are disabled).
  uint64_t published_epoch() const {
    return snap_ == nullptr ? 0 : snap_->epochs.published();
  }

  /// Currently retained published versions (diagnostics; 0 when disabled).
  size_t RetainedVersions() const {
    return snap_ == nullptr ? 0 : snap_->versions.size();
  }

  /// Pins the current epoch and returns an immutable handle onto it.
  /// Callable from any thread while the maintainer keeps writing; requires
  /// EnableSnapshots(). The tree must not be moved or destroyed while
  /// handles are live.
  ViewTreeSnapshot<R> Snapshot() const;

  /// Delta enumeration (paper §1, footnote 2): applies the update and
  /// reports the change to the *output*: sink(tuple, old_payload,
  /// new_payload) for every output tuple whose payload changed (including
  /// appearing/disappearing tuples, with the respective payload Zero).
  /// Requires an enumerable plan. Cost is proportional to the number of
  /// output tuples agreeing with the update on the atom's free variables.
  void UpdateAtomWithDeltaEnum(
      size_t atom_id, const Tuple& t, const RV& d,
      const std::function<void(const Tuple&, const RV& /*old*/,
                               const RV& /*new*/)>& sink) {
    INCR_CHECK(plan_.CanEnumerate().ok());
    Binding binding;
    const Schema& s = query().atoms()[atom_id].schema;
    for (size_t i = 0; i < s.size(); ++i) {
      if (query().IsFree(s[i])) binding.Bind(s[i], t[i]);
    }
    // Old payloads of potentially affected tuples.
    DenseMap<Tuple, RV, TupleHash, TupleEq> old;
    for (ViewTreeEnumerator<R> it(*this, binding); it.Valid(); it.Next()) {
      old.FindOrInsert(it.tuple(), it.payload());
    }
    UpdateAtom(atom_id, t, d);
    for (ViewTreeEnumerator<R> it(*this, binding); it.Valid(); it.Next()) {
      Tuple out = it.tuple();
      RV now = it.payload();
      const size_t slot = old.FindSlot(out);
      if (slot == kNoSlot) {
        sink(out, R::Zero(), now);
      } else {
        const RV& before = old.ValueAt(old.EntryOf(slot));
        if (!R::IsZero(R::Add(now, R::Neg(before)))) sink(out, before, now);
        old.EraseSlot(slot);
      }
    }
    // Tuples that disappeared from the output.
    for (const auto& e : old) sink(e.key, e.value, R::Zero());
  }

  /// Loads a tuple into an atom's base relation without propagation; pair
  /// with Rebuild() for O(|D|)-style bulk preprocessing. Not published to
  /// snapshot readers until the next publish (normally the Rebuild()).
  void LoadAtom(size_t atom_id, const Tuple& t, const RV& d) {
    EnsureBuild();
    build_->atoms[atom_id]->Apply(t, d);
    // Unlogged mutation: retired versions can no longer be caught up by
    // batch replay, so invalidate the recycle log.
    if (snap_ != nullptr) snap_->log.clear();
  }

  /// Rebuilds every view bottom-up from the base relations. In snapshot
  /// mode the rebuilt state is published as a fresh epoch.
  void Rebuild() {
    EnsureBuild();
    const bool obs_on = obs::Enabled();
    const obs::SpanId span = detail::ViewTreeMetrics().rebuild_span;
    const auto& pre = plan_.vo().preorder();
    const uint64_t t0 = obs_on ? obs::NowNs() : 0;
    if (obs_on) obs::SpanBegin(span, t0, pre.size());
    for (auto& w : build_->w) w->Clear();
    for (auto& m : build_->m) m->Clear();
    // Children before parents: reverse preorder visits leaves first.
    for (size_t k = pre.size(); k-- > 0;) {
      BuildNode(pre[k]);
    }
    if (obs_on) obs::SpanEnd(span, t0, obs::NowNs() - t0, pre.size());
    if (snap_ != nullptr) {
      snap_->log.clear();  // bulk rebuild is not reachable by batch replay
      PublishVersion();
    }
  }

  /// Product over root nodes of M_root(()): the full aggregate of the query
  /// with every variable (free ones included) marginalized.
  RV Aggregate() const {
    RV acc = R::One();
    for (int r : plan_.roots()) {
      acc = R::Mul(acc, Live().m[static_cast<size_t>(r)]->Payload(Tuple{}));
    }
    return acc;
  }

  const Relation<R>& AtomRelation(size_t atom_id) const {
    return *Live().atoms[atom_id];
  }
  const ShardedRelation<R>& NodeW(int node) const {
    return *Live().w[static_cast<size_t>(node)];
  }
  const Relation<R>& NodeM(int node) const {
    return *Live().m[static_cast<size_t>(node)];
  }

  /// The output schema: free variables in enumeration (preorder) order.
  Schema OutputSchema() const {
    Schema out;
    for (int n : plan_.enum_nodes()) {
      out.push_back(plan_.nodes()[static_cast<size_t>(n)].var);
    }
    return out;
  }

  /// Payload Q(t) of an output tuple over OutputSchema(): the product, over
  /// free nodes, of the anchored atoms' payloads and the bound children's
  /// marginalizations, times the M of fully-bound root trees.
  RV OutputPayload(const Tuple& t) const { return OutputPayload(Live(), t); }

  /// Per-node maintenance statistics, accumulated while obs::Enabled().
  /// All counts are plain integers written only by the coordinating thread
  /// (per-node batch coordination is single-threaded even on the parallel
  /// path), so reads between batches are exact.
  struct NodeObs {
    uint64_t batch_calls = 0;    // batches in which this node had work
    uint64_t single_deltas = 0;  // ProcessDelta visits (per-tuple path)
    uint64_t tuples_in = 0;      // source deltas folded at this node
    uint64_t tuples_out = 0;     // W-delta tuples emitted by its programs
    uint64_t apply_ns = 0;       // wall time spent in its batch processing
    // Deterministic work counts (the paper's bounds are about work, not
    // time): factor lookups by its delta programs, group members those
    // lookups scanned, and tuples written into its indexed views (W_X
    // always; M_X and its anchored atoms when they carry an index).
    uint64_t index_probes = 0;
    uint64_t members_scanned = 0;
    uint64_t indexed_writes = 0;
  };

  const NodeObs& node_stats(int node) const {
    return node_stats_[static_cast<size_t>(node)];
  }
  void ResetNodeStats() {
    for (NodeObs& no : node_stats_) no = NodeObs{};
  }

  /// JSON array with one object per view-tree node: static shape (var,
  /// parent, key arity), current view cardinalities |W_X| / |M_X|, and the
  /// accumulated NodeObs counters. This is the per-node cost breakdown
  /// embedded into BENCH_*.json (the paper's costs are per materialized
  /// view, so the node is the attribution unit).
  std::string NodeStatsJson() const {
    std::string out = "[";
    const TreeState& live = Live();
    const auto& nodes = plan_.nodes();
    for (size_t i = 0; i < nodes.size(); ++i) {
      const PlanNode& pn = nodes[i];
      const NodeObs& no = node_stats_[i];
      if (i > 0) out += ", ";
      out += "{\"node\": " + std::to_string(i);
      out += ", \"var\": " + std::to_string(static_cast<int64_t>(pn.var));
      out += ", \"parent\": " + std::to_string(pn.parent);
      out += ", \"free\": " + std::string(pn.free ? "true" : "false");
      out += ", \"key_arity\": " + std::to_string(pn.key.size());
      out += ", \"w_size\": " + std::to_string(live.w[i]->size());
      out += ", \"m_size\": " + std::to_string(live.m[i]->size());
      out += ", \"batch_calls\": " + std::to_string(no.batch_calls);
      out += ", \"single_deltas\": " + std::to_string(no.single_deltas);
      out += ", \"tuples_in\": " + std::to_string(no.tuples_in);
      out += ", \"tuples_out\": " + std::to_string(no.tuples_out);
      out += ", \"apply_ns\": " + std::to_string(no.apply_ns);
      out += ", \"index_probes\": " + std::to_string(no.index_probes);
      out += ", \"members_scanned\": " + std::to_string(no.members_scanned);
      out += ", \"indexed_writes\": " + std::to_string(no.indexed_writes);
      out += "}";
    }
    out += "]";
    return out;
  }

  /// Fills an EXPLAIN tree description: the static plan shape and cost
  /// classes (obs::DescribePlan over the compiled plan) plus this
  /// instance's parallel-layer layout; in analyze mode, also the live view
  /// cardinalities and accumulated NodeObs counters — the same numbers
  /// NodeStatsJson reports, joined onto the plan tree.
  void DescribeTo(obs::ExplainTree* out, bool analyze) const {
    obs::DescribePlan(plan_, out);
    out->shards = num_shards();
    out->morsel_bytes = morsel_bytes();
    out->snapshots = snapshots_enabled();
    out->published_epoch = published_epoch();
    if (!analyze) return;
    const TreeState& live = Live();
    for (size_t i = 0; i < out->nodes.size(); ++i) {
      obs::ExplainNode& n = out->nodes[i];
      const NodeObs& no = node_stats_[i];
      n.live = true;
      n.w_size = live.w[i]->size();
      n.m_size = live.m[i]->size();
      n.batch_calls = no.batch_calls;
      n.single_deltas = no.single_deltas;
      n.tuples_in = no.tuples_in;
      n.tuples_out = no.tuples_out;
      n.apply_ns = no.apply_ns;
      n.index_probes = no.index_probes;
      n.members_scanned = no.members_scanned;
      n.indexed_writes = no.indexed_writes;
    }
  }

  /// Serializes the tree's full dynamic state — every base relation and
  /// every node's W and M view — for checkpointing (store/checkpoint.h).
  /// Payloads are dumped verbatim rather than recomputed, so a dump + load
  /// round-trip is bit-identical even for float rings, where Rebuild()'s
  /// summation order would differ from the incrementally-maintained values.
  void DumpState(store::ByteWriter& w) const {
    // Dumps Live(): in snapshot mode, between maintainer operations, that
    // is the published head (plus any unpublished LoadAtom loads), so on
    // the maintainer thread this never serializes a mid-build state.
    const TreeState& live = Live();
    w.PutU32(static_cast<uint32_t>(live.atoms.size()));
    for (const auto& atom : live.atoms) store::WriteRelation(w, *atom);
    w.PutU32(static_cast<uint32_t>(plan_.nodes().size()));
    for (size_t i = 0; i < plan_.nodes().size(); ++i) {
      store::WriteShardedRelation(w, *live.w[i]);
      store::WriteRelation(w, *live.m[i]);
    }
  }

  /// Restores state dumped by DumpState into this tree (which must be built
  /// over the same plan — atom/node counts and schemas are validated).
  /// Existing contents are cleared; loaded entries are fresh inserts, so
  /// payloads round-trip byte-for-byte.
  Status LoadState(store::ByteReader& r) {
    EnsureBuild();
    if (r.GetU32() != build_->atoms.size() || !r.ok()) {
      return Status::InvalidArgument("snapshot atom count mismatch");
    }
    for (auto& atom : build_->atoms) {
      Status st = store::ReadRelationInto(r, atom.get());
      if (!st.ok()) return st;
    }
    if (r.GetU32() != plan_.nodes().size() || !r.ok()) {
      return Status::InvalidArgument("snapshot node count mismatch");
    }
    for (size_t i = 0; i < plan_.nodes().size(); ++i) {
      Status st = store::ReadShardedRelationInto(r, build_->w[i].get());
      if (st.ok()) st = store::ReadRelationInto(r, build_->m[i].get());
      if (!st.ok()) return st;
    }
    if (snap_ != nullptr) {
      snap_->log.clear();  // loaded state is not reachable by batch replay
      PublishVersion();
    }
    return Status::Ok();
  }

  friend class ViewTreeEnumerator<R>;
  friend class ViewTreeSnapshot<R>;

 private:
  /// One complete version of the tree's dynamic state: every atom base
  /// relation plus every node's W and M view, tagged with the epoch it
  /// represents. Published TreeStates are immutable; only the (private)
  /// build state is ever mutated. Heap-allocated so published pointers
  /// stay stable even if the owning ViewTree is moved.
  struct TreeState {
    std::vector<std::unique_ptr<Relation<R>>> atoms;
    std::vector<std::unique_ptr<ShardedRelation<R>>> w;
    std::vector<std::unique_ptr<Relation<R>>> m;
    uint64_t epoch = 0;
  };

  /// All snapshot-mode bookkeeping (null in exclusive mode). `versions`
  /// holds the retained published states, oldest first; its back is the
  /// head readers resolve via the atomic pointer. `log` holds the batches
  /// published since the oldest retained version, keyed by the epoch each
  /// produced, so a retired version can be recycled by replay.
  struct SnapshotCtl {
    epoch::Manager epochs;
    std::atomic<TreeState*> head{nullptr};
    std::deque<std::unique_ptr<TreeState>> versions;
    std::deque<std::pair<uint64_t, DeltaBatch<R>>> log;
    size_t max_retained = 3;
  };

  static size_t StateBytes(const TreeState& ts) {
    size_t n = 0;
    for (const auto& a : ts.atoms) n += a->MemoryBytes() + a->PagedBytes();
    for (const auto& w : ts.w) n += w->MemoryBytes() + w->PagedBytes();
    for (const auto& m : ts.m) n += m->MemoryBytes() + m->PagedBytes();
    return n;
  }

  std::unique_ptr<TreeState> CloneState(const TreeState& src) const {
    auto ts = std::make_unique<TreeState>();
    ts->atoms.reserve(src.atoms.size());
    for (const auto& a : src.atoms) {
      ts->atoms.push_back(std::make_unique<Relation<R>>(*a));
    }
    ts->w.reserve(src.w.size());
    for (const auto& w : src.w) {
      ts->w.push_back(std::make_unique<ShardedRelation<R>>(*w));
    }
    ts->m.reserve(src.m.size());
    for (const auto& m : src.m) {
      ts->m.push_back(std::make_unique<Relation<R>>(*m));
    }
    ts->epoch = src.epoch;
    return ts;
  }

  /// Moves the build state into `versions` as the new head and bumps the
  /// published epoch (the single atomic readers synchronize on). The build
  /// state stays empty until the next mutation's EnsureBuild.
  void PublishVersion() {
    SnapshotCtl& s = *snap_;
    const uint64_t e = s.epochs.published() + 1;
    build_->epoch = e;
    s.versions.push_back(std::move(build_));
    // Order matters: the head pointer must be readable before the epoch it
    // carries is announced (readers load published, then head — see
    // util/epoch.h for why this pairing is race-free).
    s.head.store(s.versions.back().get(), std::memory_order_release);
    s.epochs.Publish(e);
    if (obs::Enabled()) {
      const auto& m = detail::ViewTreeMetrics();
      m.snapshot_publishes->Inc();
      m.snapshot_versions->Set(static_cast<int64_t>(s.versions.size()));
      if ((e & 63) == 0) {  // StateBytes walks every index; sample it
        size_t bytes = 0;
        for (const auto& v : s.versions) bytes += StateBytes(*v);
        m.snapshot_bytes->Set(static_cast<int64_t>(bytes));
      }
    }
  }

  /// The state maintainer-side reads see: the build state while one is
  /// held (always, outside snapshot mode), else the published head. Only
  /// the maintainer stores `head`, so its own relaxed load is exact.
  const TreeState& Live() const {
    return build_ != nullptr ? *build_
                             : *snap_->head.load(std::memory_order_relaxed);
  }

  /// Called first by every mutator: refills an empty build state (snapshot
  /// mode, after a publish). The refill is out of line so that mutators
  /// and exclusive mode carry only the check (inlined, it slowed the
  /// exclusive-mode paged-durable benchmark workload by about 8%).
  void EnsureBuild() {
    if (build_ == nullptr) AcquireBuild();
  }

  /// Refills `build_` with a state equal to the published head: preferably
  /// a reclaimed retired version caught up by replaying the logged batches
  /// it missed (identical op sequence => bit-identical state), else a deep
  /// copy. Blocks (yield-spin) while the retention cap is reached and
  /// every retirable version is still pinned by a reader; the wait start
  /// is a recorder event. Fails (INCR_CHECK) instead of waiting when any
  /// pin it waits on is held by the calling thread, which would never
  /// return. With obs on, the stall and the copy time land in
  /// viewtree.snapshot_{wait,clone}_ns.
  [[gnu::noinline]] void AcquireBuild() {
    SnapshotCtl& s = *snap_;
    std::unique_ptr<TreeState> candidate;
    bool waiting = false;
    uint64_t wait_start = 0;  // set on the first yield, if obs is on
    for (;;) {
      const uint64_t min_active = s.epochs.MinActive();
      while (s.versions.size() > 1 && s.versions.front()->epoch < min_active) {
        candidate = std::move(s.versions.front());  // newest retiree survives
        s.versions.pop_front();
      }
      if (candidate != nullptr || s.versions.size() < s.max_retained) break;
      if (!waiting) {
        waiting = true;
        obs::RecordEvent(obs::EventKind::kSnapshotWait,
                         s.versions.back()->epoch, s.versions.size());
        if (obs::Enabled()) wait_start = obs::NowNs();
      }
      // The oldest version stays until no pin is at or below its epoch;
      // one of them held by this thread is never released while it waits.
      const bool self_pinned =
          s.epochs.HoldsOwnPinAtOrBelow(s.versions.front()->epoch);
      INCR_CHECK(!self_pinned &&
                 "the maintainer thread holds a snapshot pin it waits on: "
                 "release it or raise max_retained_epochs");
      std::this_thread::yield();
    }
    if (wait_start != 0) {
      detail::ViewTreeMetrics().snapshot_wait_ns->Record(obs::NowNs() -
                                                         wait_start);
    }
    const uint64_t head_epoch = s.versions.back()->epoch;
    if (candidate != nullptr) {
      // Replay is only sound if the log covers (candidate, head] without
      // gaps; unlogged mutations (Rebuild, LoadState, SetThreads) clear
      // the log, forcing the clone path below.
      const bool continuous = !s.log.empty() &&
                              s.log.front().first <= candidate->epoch + 1 &&
                              s.log.back().first == head_epoch;
      if (continuous) {
        build_ = std::move(candidate);
        stats_muted_ = true;  // replay must not double-count NodeObs
        size_t replayed = 0;
        for (const auto& [e, b] : s.log) {
          if (e <= build_->epoch) continue;
          ApplyBatchTo(b);
          ++replayed;
        }
        stats_muted_ = false;
        build_->epoch = head_epoch;
        if (obs::Enabled()) {
          const auto& m = detail::ViewTreeMetrics();
          m.snapshot_recycles->Inc();
          m.snapshot_replays->Add(replayed);
        }
      } else {
        candidate.reset();
      }
    }
    if (build_ == nullptr) {
      const uint64_t t0 = obs::Enabled() ? obs::NowNs() : 0;
      build_ = CloneState(*s.versions.back());
      if (t0 != 0) {
        const auto& m = detail::ViewTreeMetrics();
        m.snapshot_clones->Inc();
        m.snapshot_clone_ns->Record(obs::NowNs() - t0);
      }
    }
    // Entries at or below the oldest retained epoch can never be needed.
    while (!s.log.empty() &&
           s.log.front().first <= s.versions.front()->epoch) {
      s.log.pop_front();
    }
  }

  /// The bare node-at-a-time batch loop against the build state, shared by
  /// the public ApplyBatch (which adds obs + publish) and catch-up replay
  /// (which must stay un-instrumented and must not publish).
  void ApplyBatchTo(const DeltaBatch<R>& batch) {
    const bool obs_on = obs::Enabled() && !stats_muted_;
    // threads == 1 short-circuits to the direct sequential path even if a
    // degenerate one-thread pool was installed: partitioning, per-shard
    // buffers, and morsel bookkeeping are pure overhead with one executor,
    // and the sequential path is the determinism baseline anyway.
    const bool par = pool_ != nullptr && pool_->num_threads() > 1;
    // Pending per-node delta relations over the node's key schema, handed
    // from each node to its parent (or folded into M at the roots).
    std::vector<std::unique_ptr<Relation<R>>> pending(plan_.nodes().size());
    const auto& pre = plan_.vo().preorder();
    const obs::SpanId node_span = detail::ViewTreeMetrics().node_span;
    for (size_t k = pre.size(); k-- > 0;) {
      const int node = pre[k];
      const uint64_t t0 = obs_on ? obs::NowNs() : 0;
      if (obs_on) obs::SpanBegin(node_span, t0, static_cast<uint64_t>(node));
      if (!par) {
        ProcessNodeBatch(node, batch, &pending);
      } else {
        ProcessNodeBatchParallel(node, batch, &pending);
      }
      if (obs_on) {
        const uint64_t dur = obs::NowNs() - t0;
        node_stats_[static_cast<size_t>(node)].apply_ns += dur;
        obs::SpanEnd(node_span, t0, dur, static_cast<uint64_t>(node));
      }
    }
  }

  RV OutputPayload(const TreeState& ts, const Tuple& t) const;

  const Relation<R>& FactorStorage(const FactorRef& f) const {
    if (f.kind == FactorRef::kAtom) return *build_->atoms[f.index];
    return *build_->m[f.index];
  }

  /// Work counts of delta programs. Programs may run on pool threads, so
  /// each run accumulates into its caller's own WorkCounts (null while obs
  /// is off) and the coordinating thread folds them into NodeObs.
  struct WorkCounts {
    uint64_t index_probes = 0;
    uint64_t members_scanned = 0;

    void AddTo(NodeObs* no) const {
      no->index_probes += index_probes;
      no->members_scanned += members_scanned;
    }
  };

  /// Runs `prog` for a single source delta, emitting W-delta tuples.
  void RunProgram(const DeltaProgram& prog, const Tuple& src, const RV& d,
                  const Schema& w_schema,
                  std::vector<std::pair<Tuple, RV>>* out,
                  WorkCounts* wc = nullptr) const {
    Tuple assign;
    assign.resize(w_schema.size(), 0);
    for (size_t i = 0; i < prog.source_slots.size(); ++i) {
      assign[prog.source_slots[i]] = src[i];
    }
    RunSteps(prog, 0, assign, d, out, wc);
  }

  void RunSteps(const DeltaProgram& prog, size_t step_idx, Tuple& assign,
                const RV& acc, std::vector<std::pair<Tuple, RV>>* out,
                WorkCounts* wc) const {
    if (R::IsZero(acc)) return;
    if (step_idx == prog.steps.size()) {
      out->emplace_back(assign, acc);
      return;
    }
    const JoinStep& step = prog.steps[step_idx];
    const Relation<R>& storage = FactorStorage(step.factor);
    if (step.full_key) {
      Tuple probe;
      probe.resize(step.bound_cols.size(), 0);
      // bound_cols are in factor-schema order and cover the whole schema.
      for (size_t i = 0; i < step.bound_cols.size(); ++i) {
        probe[step.bound_cols[i]] = assign[step.bound_slots[i]];
      }
      RV payload = storage.Payload(probe);
      if (wc != nullptr) ++wc->index_probes;
      RunSteps(prog, step_idx + 1, assign, R::Mul(acc, payload), out, wc);
      return;
    }
    Tuple probe;
    probe.reserve(step.bound_cols.size());
    for (size_t i = 0; i < step.bound_cols.size(); ++i) {
      probe.push_back(assign[step.bound_slots[i]]);
    }
    // The index is on the bound columns, so a member's rest columns are
    // exactly new_cols: they come from the group's own records, and only
    // the payload is read through the member's entry id (no probe). Heap
    // indexes view their own records (the scratch stays unallocated);
    // paged ones decode into it. A per-invocation scratch because RunSteps
    // recurses inside the member loop below.
    const GroupedIndex& index = storage.index(step.index_slot);
    INCR_DCHECK(std::equal(step.new_cols.begin(), step.new_cols.end(),
                           index.rest_positions().begin(),
                           index.rest_positions().end()));
    std::vector<uint32_t> records;
    const GroupView group = index.Group(probe, &records);
    if (wc != nullptr) {
      ++wc->index_probes;
      wc->members_scanned += group.size();
    }
    for (size_t k = 0; k < group.size(); ++k) {
      for (size_t i = 0; i < step.new_slots.size(); ++i) {
        assign[step.new_slots[i]] = group.Rest(k, i);
      }
      RunSteps(prog, step_idx + 1, assign,
               R::Mul(acc, storage.ValueAt(group[k])), out, wc);
    }
  }

  const DeltaProgram* UpProgram(int node) const {
    const PlanNode& pn = plan_.nodes()[static_cast<size_t>(node)];
    if (pn.parent == -1) return nullptr;
    const PlanNode& parent = plan_.nodes()[static_cast<size_t>(pn.parent)];
    for (size_t k = 0; k < parent.children.size(); ++k) {
      if (parent.children[k] == node) return &parent.child_programs[k];
    }
    INCR_CHECK(false);
    return nullptr;
  }

  /// Applies a source delta at `node`, updates W and M, recurses upward.
  void ProcessDelta(int node, const DeltaProgram& prog, const Tuple& src,
                    const RV& d) {
    const PlanNode& pn = plan_.nodes()[static_cast<size_t>(node)];
    std::vector<std::pair<Tuple, RV>> w_deltas;
    NodeObs* no =
        obs::Enabled() ? &node_stats_[static_cast<size_t>(node)] : nullptr;
    WorkCounts wc;
    RunProgram(prog, src, d, pn.w_schema, &w_deltas,
               no != nullptr ? &wc : nullptr);
    if (no != nullptr) {
      ++no->single_deltas;
      ++no->tuples_in;
      no->tuples_out += w_deltas.size();
      no->indexed_writes += w_deltas.size();
      wc.AddTo(no);
    }
    if (w_deltas.empty()) return;

    ShardedRelation<R>& w = *build_->w[static_cast<size_t>(node)];
    Relation<R>& m = *build_->m[static_cast<size_t>(node)];
    const Lift& lift = lifts_[static_cast<size_t>(node)];
    const DeltaProgram* up = UpProgram(node);
    const bool m_indexed = no != nullptr && m.num_indexes() > 0;

    // Fast path for the common case (q-hierarchical single-tuple update):
    // one W delta yields one M delta, no grouping map needed.
    if (w_deltas.size() == 1) {
      const auto& [wt, wd] = w_deltas[0];
      w.Apply(wt, wd);
      Tuple key(wt.data(), pn.key.size());
      RV lifted = lift ? R::Mul(wd, lift(wt.back())) : wd;
      if (R::IsZero(lifted)) return;
      m.Apply(key, lifted);
      if (m_indexed) ++no->indexed_writes;
      if (up != nullptr) ProcessDelta(pn.parent, *up, key, lifted);
      return;
    }

    // General path: aggregate W deltas into grouped M deltas.
    Relation<R> m_delta(pn.key);
    for (auto& [wt, wd] : w_deltas) {
      w.Apply(wt, wd);
      Tuple key(wt.data(), pn.key.size());
      m_delta.Apply(key, lift ? R::Mul(wd, lift(wt.back())) : wd);
    }
    if (m_indexed) no->indexed_writes += m_delta.size();
    for (const auto& e : m_delta) {
      m.Apply(e.key, e.value);
      if (up != nullptr) ProcessDelta(pn.parent, *up, e.key, e.value);
    }
  }

  /// Batched counterpart of ProcessDelta: folds every delta source of one
  /// node (anchored atoms with batch deltas, children with pending delta
  /// relations) into W_X and a grouped M-delta in a single visit.
  ///
  /// Exactness relies on the product rule for a sequence of factor deltas:
  ///     delta(F_1 ... F_m) = SUM_k F_1' ... F_{k-1}' dF_k F_{k+1} ... F_m
  /// (primed = post-delta state). Sources are processed in a fixed order;
  /// each source's merged delta is applied to its own storage *before* its
  /// program runs, so programs probe already-processed factors at their new
  /// state and unprocessed ones at their old state — each cross-delta
  /// interaction is counted exactly once. This is why a child's M is NOT
  /// updated when the child node is processed: the delta is parked in
  /// `pending` and folded into M right before the parent consumes it.
  void ProcessNodeBatch(int node, const DeltaBatch<R>& batch,
                        std::vector<std::unique_ptr<Relation<R>>>* pending) {
    const PlanNode& pn = plan_.nodes()[static_cast<size_t>(node)];
    bool has_work = false;
    for (size_t a : pn.atoms) has_work |= !batch.of(a).empty();
    for (int c : pn.children) {
      has_work |= (*pending)[static_cast<size_t>(c)] != nullptr;
    }
    if (!has_work) return;
    const bool obs_on = obs::Enabled() && !stats_muted_;
    NodeObs& no = node_stats_[static_cast<size_t>(node)];
    if (obs_on) ++no.batch_calls;

    std::vector<std::pair<Tuple, RV>> w_deltas;
    WorkCounts wc;
    WorkCounts* wcp = obs_on ? &wc : nullptr;
    for (size_t i = 0; i < pn.atoms.size(); ++i) {
      const auto& d = batch.of(pn.atoms[i]);
      if (d.empty()) continue;
      Relation<R>& atom = *build_->atoms[pn.atoms[i]];
      if (obs_on) {
        no.tuples_in += d.size();
        if (atom.num_indexes() > 0) no.indexed_writes += d.size();
      }
      atom.ApplyBatch(batch.entries(pn.atoms[i]));
      for (const auto& e : d) {
        RunProgram(pn.atom_programs[i], e.key, e.value, pn.w_schema,
                   &w_deltas, wcp);
      }
    }
    for (size_t i = 0; i < pn.children.size(); ++i) {
      auto& parked = (*pending)[static_cast<size_t>(pn.children[i])];
      if (parked == nullptr) continue;
      Relation<R>& cm = *build_->m[static_cast<size_t>(pn.children[i])];
      if (obs_on) {
        no.tuples_in += parked->size();
        CountMWrites(pn.children[i], cm, parked->size());
      }
      for (const auto& e : *parked) cm.Apply(e.key, e.value);
      for (const auto& e : *parked) {
        RunProgram(pn.child_programs[i], e.key, e.value, pn.w_schema,
                   &w_deltas, wcp);
      }
      parked.reset();
    }
    if (obs_on) {
      no.tuples_out += w_deltas.size();
      no.indexed_writes += w_deltas.size();
      wc.AddTo(&no);
    }
    if (w_deltas.empty()) return;

    // Fold W deltas into W_X and group them into the node's M-delta. W is
    // never probed by delta programs, so its application can safely happen
    // after all sources ran.
    ShardedRelation<R>& w = *build_->w[static_cast<size_t>(node)];
    const Lift& lift = lifts_[static_cast<size_t>(node)];
    auto m_delta = std::make_unique<Relation<R>>(pn.key);
    m_delta->Reserve(w_deltas.size());
    for (auto& [wt, wd] : w_deltas) {
      w.Apply(wt, wd);
      Tuple key(wt.data(), pn.key.size());
      m_delta->Apply(key, lift ? R::Mul(wd, lift(wt.back())) : wd);
    }
    if (m_delta->empty()) return;
    if (pn.parent == -1) {
      Relation<R>& m = *build_->m[static_cast<size_t>(node)];
      if (obs_on) CountMWrites(node, m, m_delta->size());
      for (const auto& e : *m_delta) m.Apply(e.key, e.value);
    } else {
      (*pending)[static_cast<size_t>(node)] = std::move(m_delta);
    }
  }

  /// Charges `n` writes into M_X of `node` to that node's indexed-write
  /// count when M_X carries an index (obs on; coordinating thread only).
  void CountMWrites(int node, const Relation<R>& m, size_t n) {
    if (m.num_indexes() > 0) {
      node_stats_[static_cast<size_t>(node)].indexed_writes += n;
    }
  }

  /// Shard-parallel counterpart of ProcessNodeBatch. Same product-rule
  /// source order and the same fold, decomposed over kParallelShards hash
  /// shards of the node's key space so that threads never share a
  /// DenseMap.
  ///
  /// Emissions are collected as an ordered list of *emit segments*: each
  /// segment holds S shard-local buffers, and for every shard s the
  /// concatenation of segment buffers seg[0][s], seg[1][s], ... is exactly
  /// the sequential w_deltas emission order restricted to shard s. Every
  /// source runs morsel-driven (ThreadPool::ParallelMorsels): its input
  /// span is carved on a fixed cache-sized morsel grid and each grid cell
  /// is one segment, filled by whichever thread steals it. Grid boundaries
  /// depend only on the input size and morsel bytes — never on thread
  /// count or schedule.
  ///
  /// The fold is fused with emission bookkeeping: shard s walks the
  /// segment list in order and applies each buffer s directly into W
  /// shard s and its shard-local M-delta — there is no separate gather
  /// phase and no bucket concatenation copy. M-deltas have pairwise
  /// disjoint keys and are merged sequentially in shard order.
  ///
  /// Determinism: the segment order is the sequential source/emission
  /// order and the shard partition is fixed (kParallelShards), so per
  /// W-tuple and per M-key the ring-operation sequence is identical to the
  /// sequential path — payloads match bit-for-bit even for
  /// non-associative float rings, at any thread count and morsel size.
  void ProcessNodeBatchParallel(
      int node, const DeltaBatch<R>& batch,
      std::vector<std::unique_ptr<Relation<R>>>* pending) {
    const PlanNode& pn = plan_.nodes()[static_cast<size_t>(node)];
    bool has_work = false;
    for (size_t a : pn.atoms) has_work |= !batch.of(a).empty();
    for (int c : pn.children) {
      has_work |= (*pending)[static_cast<size_t>(c)] != nullptr;
    }
    if (!has_work) return;
    const bool obs_on = obs::Enabled() && !stats_muted_;
    NodeObs& no = node_stats_[static_cast<size_t>(node)];
    if (obs_on) ++no.batch_calls;

    const size_t S = kParallelShards;
    ThreadPool* pool = pool_.get();
    const size_t key_size = pn.key.size();
    // One emit segment = S shard-local buffers. Segments are appended in
    // source order; within a source, in morsel-grid order.
    using EmitSegment = std::vector<std::vector<std::pair<Tuple, RV>>>;
    std::vector<EmitSegment> segments;
    // Morsels are sized in bytes of input entries (cache-resident units).
    const size_t morsel_elems = std::max<size_t>(
        1, morsel_bytes_ / sizeof(typename DeltaBatch<R>::Entry));

    auto shard_of_w = [&](const Tuple& wt) {
      return ShardOfHash(
          HashSpan64(reinterpret_cast<const uint64_t*>(wt.data()), key_size),
          S);
    };
    // Program work counts, one slot per grid cell, summed into NodeObs
    // after each source.
    std::vector<WorkCounts> task_wc;
    auto run_source = [&](const DeltaProgram& prog,
                          std::span<const typename DeltaBatch<R>::Entry>
                              entries) {
      // Each fixed grid cell [begin, end) owns segment
      // first + begin/morsel_elems and scatters its emissions into that
      // segment's shard buffers — no thread ever writes another cell's
      // segment, and no gather runs: the fold consumes the segments where
      // they were written.
      const size_t nseg = (entries.size() + morsel_elems - 1) / morsel_elems;
      const size_t first = segments.size();
      for (size_t k = 0; k < nseg; ++k) segments.emplace_back(S);
      task_wc.assign(obs_on ? nseg : 0, WorkCounts{});
      pool->ParallelMorsels(
          entries.size(), morsel_elems, [&](size_t begin, size_t end) {
            EmitSegment& seg = segments[first + begin / morsel_elems];
            WorkCounts* wc =
                obs_on ? &task_wc[begin / morsel_elems] : nullptr;
            std::vector<std::pair<Tuple, RV>> emitted;
            for (size_t i = begin; i < end; ++i) {
              const auto& e = entries[i];
              RunProgram(prog, e.key, e.value, pn.w_schema, &emitted, wc);
            }
            for (auto& [wt, wd] : emitted) {
              seg[shard_of_w(wt)].emplace_back(std::move(wt),
                                               std::move(wd));
            }
          });
      for (const WorkCounts& w : task_wc) w.AddTo(&no);
    };

    for (size_t i = 0; i < pn.atoms.size(); ++i) {
      const auto& d = batch.of(pn.atoms[i]);
      if (d.empty()) continue;
      Relation<R>& atom = *build_->atoms[pn.atoms[i]];
      if (obs_on) {
        no.tuples_in += d.size();
        if (atom.num_indexes() > 0) no.indexed_writes += d.size();
      }
      atom.ApplyBatch(batch.entries(pn.atoms[i]), pool);
      run_source(pn.atom_programs[i], batch.entries(pn.atoms[i]));
    }
    for (size_t i = 0; i < pn.children.size(); ++i) {
      auto& parked = (*pending)[static_cast<size_t>(pn.children[i])];
      if (parked == nullptr) continue;
      Relation<R>& cm = *build_->m[static_cast<size_t>(pn.children[i])];
      if (obs_on) {
        no.tuples_in += parked->size();
        CountMWrites(pn.children[i], cm, parked->size());
      }
      std::span<const typename Relation<R>::Entry> entries(parked->begin(),
                                                           parked->size());
      cm.ApplyBatch(entries, pool);
      run_source(pn.child_programs[i], entries);
      parked.reset();
    }
    bool any = false;
    size_t emitted = 0;
    size_t max_bucket = 0;
    std::vector<size_t> shard_sizes(S, 0);
    for (const EmitSegment& seg : segments) {
      for (size_t s = 0; s < S; ++s) shard_sizes[s] += seg[s].size();
    }
    for (size_t s = 0; s < S; ++s) {
      any |= shard_sizes[s] != 0;
      emitted += shard_sizes[s];
      max_bucket = std::max(max_bucket, shard_sizes[s]);
    }
    if (obs_on) {
      no.tuples_out += emitted;
      no.indexed_writes += emitted;
      const auto& m = detail::ViewTreeMetrics();
      for (size_t s = 0; s < S; ++s) {
        m.shard_delta_tuples->Record(static_cast<uint64_t>(shard_sizes[s]));
      }
      if (emitted > 0) {
        // Imbalance ratio max/mean, scaled by 100 (1.0 == perfectly even
        // partition == 100). The histogram's p99 answers "how skewed do
        // shard partitions get" across a whole run.
        const double mean =
            static_cast<double>(emitted) / static_cast<double>(S);
        m.shard_imbalance_x100->Record(static_cast<uint64_t>(
            100.0 * static_cast<double>(max_bucket) / mean));
      }
    }
    if (!any) return;

    ShardedRelation<R>& w = *build_->w[static_cast<size_t>(node)];
    INCR_DCHECK(w.num_shards() == S);
    const Lift& lift = lifts_[static_cast<size_t>(node)];
    std::vector<Relation<R>> m_shards;
    m_shards.reserve(S);
    for (size_t s = 0; s < S; ++s) m_shards.emplace_back(pn.key);
    // Fused fold: shard s drains its buffer of every segment in segment
    // order — by construction the sequential emission order restricted to
    // shard s — straight into W shard s and the shard-local M-delta.
    pool->ParallelFor(S, [&](size_t s) {
      Relation<R>& ws = w.shard(s);
      Relation<R>& md = m_shards[s];
      md.Reserve(shard_sizes[s]);
      for (EmitSegment& seg : segments) {
        for (auto& [wt, wd] : seg[s]) {
          ws.Apply(wt, wd);
          Tuple key(wt.data(), key_size);
          md.Apply(key, lift ? R::Mul(wd, lift(wt.back())) : wd);
        }
      }
    });
    size_t total = 0;
    for (const Relation<R>& md : m_shards) total += md.size();
    if (total == 0) return;
    if (pn.parent == -1) {
      Relation<R>& m = *build_->m[static_cast<size_t>(node)];
      if (obs_on) CountMWrites(node, m, total);
      for (const Relation<R>& md : m_shards) {
        for (const auto& e : md) m.Apply(e.key, e.value);
      }
    } else {
      // O(shards · merge cursor) concatenation: shard keys are disjoint,
      // so every Apply is a fresh insert.
      auto merged = std::make_unique<Relation<R>>(pn.key);
      merged->Reserve(total);
      for (const Relation<R>& md : m_shards) {
        for (const auto& e : md) merged->Apply(e.key, e.value);
      }
      (*pending)[static_cast<size_t>(node)] = std::move(merged);
    }
  }

  /// Bulk-builds W and M of one node, assuming its children are built. Uses
  /// the node's first factor program: scan that factor, run the join.
  void BuildNode(int node) {
    const PlanNode& pn = plan_.nodes()[static_cast<size_t>(node)];
    const DeltaProgram* prog = nullptr;
    const Relation<R>* scan = nullptr;
    if (!pn.atoms.empty()) {
      prog = &pn.atom_programs[0];
      scan = build_->atoms[pn.atoms[0]].get();
    } else {
      INCR_CHECK(!pn.children.empty());
      prog = &pn.child_programs[0];
      scan = build_->m[static_cast<size_t>(pn.children[0])].get();
    }
    ShardedRelation<R>& w = *build_->w[static_cast<size_t>(node)];
    Relation<R>& m = *build_->m[static_cast<size_t>(node)];
    // Heuristic pre-sizing (|W_X| ~ |scan| when probes are keyed) to
    // avoid rehash storms during the bulk build.
    w.Reserve(scan->size());
    m.Reserve(scan->size());
    const Lift& lift = lifts_[static_cast<size_t>(node)];
    std::vector<std::pair<Tuple, RV>> w_deltas;
    // ForEachEntry rather than iterators: the scanned relation may be
    // paged. The body mutates only this node's W and M, never the scan.
    scan->ForEachEntry([&](const Tuple& t, const RV& v) {
      w_deltas.clear();
      RunProgram(*prog, t, v, pn.w_schema, &w_deltas);
      for (auto& [wt, wd] : w_deltas) {
        w.Apply(wt, wd);
        Tuple key(wt.data(), pn.key.size());
        m.Apply(key, lift ? R::Mul(wd, lift(wt.back())) : wd);
      }
    });
  }

  ViewTreePlan plan_;
  /// Storage backend shared by every view (see data/page_store.h); an
  /// empty context means the heap backend.
  StorageContext ctx_;
  /// The mutable state every maintenance path acts on. In exclusive mode
  /// it is the one and only state; in snapshot mode it is the private
  /// build copy, acquired by EnsureBuild at the start of a mutation and
  /// moved out by its publish (null in between).
  std::unique_ptr<TreeState> build_;
  std::vector<Lift> lifts_;
  std::vector<NodeObs> node_stats_;
  std::unique_ptr<ThreadPool> pool_;  // null: sequential batch path
  // Input bytes per morsel of the parallel path (see SetMorselBytes).
  size_t morsel_bytes_ = kDefaultMorselBytes;
  std::unique_ptr<SnapshotCtl> snap_;  // null: exclusive (non-snapshot) mode
  bool stats_muted_ = false;  // true only during catch-up replay
};

// ----------------------------------------------------------------------
// Snapshots

/// The SnapshotHandle of DESIGN.md: an immutable, constant-delay-enumerable
/// view of the whole tree at one published epoch. Holding one pins its
/// epoch, so the maintainer keeps the underlying version alive until the
/// handle is destroyed — destroy handles promptly (or raise
/// max_retained_epochs) to keep the writer from waiting on reclamation.
/// Cheap to take (one slot CAS plus two atomic loads) and movable; safe to
/// take and use from any thread while a single maintainer keeps writing.
/// A handle moved to another thread is that thread's pin from its first
/// read there, so a maintainer that hands its snapshot to a reader waits
/// for the reader at the retention cap instead of failing its self-pin
/// check.
template <RingType R>
class ViewTreeSnapshot {
 public:
  using RV = typename R::Value;

  /// The epoch whose state this handle observes. At least the pinned
  /// epoch; monotonically non-decreasing across handles taken by one
  /// thread (the head only ever advances).
  uint64_t epoch() const { return State().epoch; }

  const ViewTree<R>& tree() const { return *tree_; }

  /// Product over root nodes of M_root(()) at this epoch.
  RV Aggregate() const;

  /// Q(t) of an output tuple over the tree's OutputSchema() at this epoch.
  RV OutputPayload(const Tuple& t) const;

  /// Constant-delay enumerator over this epoch's output, with optional
  /// bindings (same contract as enumerating the live tree).
  ViewTreeEnumerator<R> Enumerate(Binding binding = Binding{}) const;

 private:
  friend class ViewTree<R>;

  ViewTreeSnapshot(const ViewTree<R>* tree, epoch::ReadGuard guard,
                   const typename ViewTree<R>::TreeState* state)
      : tree_(tree), guard_(std::move(guard)), state_(state) {}

  // Every read goes through here: it credits the pin to the reading thread.
  const typename ViewTree<R>::TreeState& State() const {
    guard_.Adopt();
    return *state_;
  }

  const ViewTree<R>* tree_;
  epoch::ReadGuard guard_;
  const typename ViewTree<R>::TreeState* state_;
};

template <RingType R>
ViewTreeSnapshot<R> ViewTree<R>::Snapshot() const {
  INCR_CHECK(snap_ != nullptr);
  // Pin first, then resolve the head: the pinned epoch lower-bounds the
  // head's epoch, so the resolved version cannot be reclaimed while the
  // guard is held (see util/epoch.h).
  epoch::ReadGuard guard(&snap_->epochs);
  const TreeState* state = snap_->head.load(std::memory_order_acquire);
  return ViewTreeSnapshot<R>(this, std::move(guard), state);
}

// ----------------------------------------------------------------------
// Enumeration

/// Constant-delay iterator over the factorized query output (RocksDB
/// iterator style: while (it.Valid()) { use it.tuple(); it.Next(); }).
///
/// Constant delay holds when the plan's CanEnumerate() is OK and bindings
/// (if any) bind a prefix of each tree's root path; other bindings still
/// enumerate correctly but may skip over dead branches.
template <RingType R>
class ViewTreeEnumerator {
 public:
  using RV = typename R::Value;

  explicit ViewTreeEnumerator(const ViewTree<R>& tree)
      : ViewTreeEnumerator(tree, tree.Live(), Binding{}) {}

  ViewTreeEnumerator(const ViewTree<R>& tree, Binding binding)
      : ViewTreeEnumerator(tree, tree.Live(), std::move(binding)) {}

 private:
  friend class ViewTreeSnapshot<R>;

  /// Enumerates one specific version. The public constructors pass the
  /// tree's Live() state; ViewTreeSnapshot passes its pinned version.
  ViewTreeEnumerator(const ViewTree<R>& tree,
                     const typename ViewTree<R>::TreeState& state,
                     Binding binding)
      : tree_(&tree), state_(&state) {
    const auto& plan = tree.plan_;
    INCR_CHECK(plan.CanEnumerate().ok());
    const auto& enum_nodes = plan.enum_nodes();
    states_.resize(enum_nodes.size());
    for (size_t i = 0; i < enum_nodes.size(); ++i) {
      NodeState& st = states_[i];
      st.node = enum_nodes[i];
      const PlanNode& pn = plan.nodes()[static_cast<size_t>(st.node)];
      // Key values come from earlier enum nodes (ancestors are free and
      // precede this node in preorder).
      for (Var kv : pn.key) {
        int src = -1;
        for (size_t j = 0; j < i; ++j) {
          if (plan.nodes()[static_cast<size_t>(enum_nodes[j])].var == kv) {
            src = static_cast<int>(j);
            break;
          }
        }
        INCR_CHECK(src >= 0);
        st.key_sources.push_back(static_cast<uint32_t>(src));
      }
      for (size_t b = 0; b < binding.vars.size(); ++b) {
        if (binding.vars[b] == pn.var) {
          st.bound = true;
          st.bound_value = binding.values[b];
        }
      }
    }
    // Fully bound trees (no free node) contribute only to payload; they can
    // also make the whole output empty when their aggregate is zero.
    for (int r : plan.roots()) {
      if (!plan.nodes()[static_cast<size_t>(r)].free &&
          R::IsZero(state.m[static_cast<size_t>(r)]->Payload(Tuple{}))) {
        empty_ = true;
      }
    }
    if (empty_) return;
    if (states_.empty()) {
      single_empty_ = true;  // zero free variables: one empty output tuple
      return;
    }
    FindSolutionFrom(0);
  }

 public:
  bool Valid() const {
    if (empty_) return false;
    if (states_.empty()) return single_empty_;
    return valid_;
  }

  void Next() {
    INCR_DCHECK(Valid());
    if (states_.empty()) {
      single_empty_ = false;
      return;
    }
    size_t j = states_.size() - 1;
    for (;;) {
      if (TryNext(j)) {
        FindSolutionFrom(j + 1);
        return;
      }
      if (j == 0) {
        valid_ = false;
        return;
      }
      --j;
    }
  }

  /// Current output tuple over the tree's OutputSchema().
  Tuple tuple() const {
    INCR_DCHECK(Valid());
    Tuple out;
    out.reserve(states_.size());
    for (const NodeState& st : states_) out.push_back(st.current);
    return out;
  }

  /// Q(tuple()): computed from base payloads in O(|Q|).
  RV payload() const { return tree_->OutputPayload(*state_, tuple()); }

 private:
  struct NodeState {
    int node = -1;
    SmallVector<uint32_t, 4> key_sources;  // positions of key vars among
                                           // earlier enum nodes
    bool bound = false;
    Value bound_value = 0;
    // Iteration state: the members of the current group (a view of heap
    // index storage, or of this state's own record scratch on the paged
    // backend), stable until the node is repositioned. A member's value of
    // the node's variable is its record's one rest column, so no member is
    // dereferenced through the relation.
    GroupView group;
    std::vector<uint32_t> records;
    size_t pos = 0;
    Value current = 0;
  };

  Tuple KeyOf(size_t i) const {
    const NodeState& st = states_[i];
    Tuple key;
    key.reserve(st.key_sources.size());
    for (uint32_t src : st.key_sources) {
      key.push_back(states_[src].current);
    }
    return key;
  }

  /// Positions node i at its first candidate for the current key values of
  /// earlier nodes. Returns false if it has none.
  bool TryFirst(size_t i) {
    NodeState& st = states_[i];
    Tuple key = KeyOf(i);
    const ShardedRelation<R>& w = *state_->w[static_cast<size_t>(st.node)];
    if (st.bound) {
      Tuple probe = key;
      probe.push_back(st.bound_value);
      if (!w.Contains(probe)) return false;
      st.group = {};
      st.current = st.bound_value;
      return true;
    }
    // Only the key's shard can hold its group (W carries index 0 on the
    // node key, which is the shard key prefix).
    const GroupedIndex& index = w.shard(w.ShardOfKey(key)).index(0);
    INCR_DCHECK(index.rest_positions().size() == 1);
    st.group = index.Group(key, &st.records);
    if (st.group.empty()) return false;
    st.pos = 0;
    st.current = Member(st);
    return true;
  }

  /// Moves node i to its next candidate under the same key, if any.
  bool TryNext(size_t i) {
    NodeState& st = states_[i];
    if (st.pos + 1 >= st.group.size()) return false;  // bound: group empty
    ++st.pos;
    st.current = Member(st);
    return true;
  }

  /// The node's value in the W tuple of the member at st.pos: W's index 0
  /// is on the node key, every column but the last.
  static Value Member(const NodeState& st) { return st.group.Rest(st.pos, 0); }

  /// Iterative odometer: positions nodes i.. at the first solution, moving
  /// earlier nodes forward when a node has no candidate.
  void FindSolutionFrom(size_t i) {
    for (;;) {
      if (i == states_.size()) {
        valid_ = true;
        return;
      }
      if (TryFirst(i)) {
        ++i;
        continue;
      }
      // No candidate at i: advance the deepest earlier node that can move.
      size_t j = i;
      for (;;) {
        if (j == 0) {
          valid_ = false;
          return;
        }
        --j;
        if (TryNext(j)) break;
      }
      i = j + 1;
    }
  }

  const ViewTree<R>* tree_;
  const typename ViewTree<R>::TreeState* state_;
  std::vector<NodeState> states_;
  bool valid_ = false;
  bool empty_ = false;
  bool single_empty_ = false;
};

template <RingType R>
typename R::Value ViewTree<R>::OutputPayload(const TreeState& ts,
                                             const Tuple& t) const {
  const auto& enum_nodes = plan_.enum_nodes();
  INCR_DCHECK(t.size() == enum_nodes.size());
  RV acc = R::One();
  // Value of a free variable by node id.
  auto value_of = [&](Var v) -> Value {
    for (size_t i = 0; i < enum_nodes.size(); ++i) {
      if (plan_.nodes()[static_cast<size_t>(enum_nodes[i])].var == v) {
        return t[i];
      }
    }
    INCR_CHECK(false);
    return 0;
  };
  for (size_t i = 0; i < enum_nodes.size(); ++i) {
    const PlanNode& pn = plan_.nodes()[static_cast<size_t>(enum_nodes[i])];
    for (size_t a : pn.atoms) {
      const Schema& s = query().atoms()[a].schema;
      Tuple probe;
      probe.reserve(s.size());
      for (Var v : s) probe.push_back(value_of(v));
      acc = R::Mul(acc, ts.atoms[a]->Payload(probe));
    }
    for (int c : pn.children) {
      const PlanNode& child = plan_.nodes()[static_cast<size_t>(c)];
      if (child.free) continue;  // free children contribute their own term
      Tuple probe;
      probe.reserve(child.key.size());
      for (Var v : child.key) probe.push_back(value_of(v));
      acc = R::Mul(acc, ts.m[static_cast<size_t>(c)]->Payload(probe));
    }
  }
  // Fully bound trees contribute their scalar aggregate.
  for (int r : plan_.roots()) {
    if (!plan_.nodes()[static_cast<size_t>(r)].free) {
      acc = R::Mul(acc, ts.m[static_cast<size_t>(r)]->Payload(Tuple{}));
    }
  }
  return acc;
}

template <RingType R>
typename R::Value ViewTreeSnapshot<R>::Aggregate() const {
  RV acc = R::One();
  const typename ViewTree<R>::TreeState& state = State();
  for (int r : tree_->plan_.roots()) {
    acc = R::Mul(acc, state.m[static_cast<size_t>(r)]->Payload(Tuple{}));
  }
  return acc;
}

template <RingType R>
typename R::Value ViewTreeSnapshot<R>::OutputPayload(const Tuple& t) const {
  return tree_->OutputPayload(State(), t);
}

template <RingType R>
ViewTreeEnumerator<R> ViewTreeSnapshot<R>::Enumerate(Binding binding) const {
  return ViewTreeEnumerator<R>(*tree_, State(), std::move(binding));
}

}  // namespace incr

#endif  // INCR_CORE_VIEW_TREE_H_
