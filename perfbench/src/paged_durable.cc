// paged-durable: the q-hierarchical view Q(A,B,C) = R(A,B) * S(A,C) run
// through DurableEngine over the paged storage backend, with a buffer pool
// sized so the view state is at least 4x the pool at the end of set-up.
//
// Each round: set-up (Open an empty durable engine, bulk load through
// ViewTree::LoadAtom + Rebuild, Checkpoint), a timed phase of single-tuple
// Updates (80% inserts, 20% deletes of live rows, Zipf-skewed A) with a
// read after every fourth update (A bound to a Zipf-drawn key, the first
// kReadLimit rows of that group through ViewTreeEnumerator), then close
// and reopen with recovery. Flush policy: fsync off, the default
// group-commit window.
//
// Output checks per round: the paged state equals a heap shadow fed the
// same load and updates (DumpState bytes), and the recovered engine dumps
// the same bytes as the engine before it was closed.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "incr/core/view_tree.h"
#include "incr/data/page_store.h"
#include "incr/engines/durable_engine.h"
#include "incr/engines/engine.h"
#include "incr/ring/int_ring.h"
#include "incr/store/serde.h"
#include "incr/store/wal.h"
#include "incr/util/rng.h"

namespace perfbench {
namespace {

using incr::IntRing;
using incr::Tuple;
using incr::Value;
using incr::Var;
using Engine = incr::ViewTreeEngine<IntRing>;
using Durable = incr::DurableEngine<IntRing>;

enum : Var { A = 0, B = 1, C = 2 };

constexpr int64_t kDomA = 4096;
constexpr double kZipfS = 1.0;
constexpr int64_t kDomBC = int64_t{1} << 30;
constexpr size_t kBaseRows = 20000;  // per relation
constexpr size_t kPageBytes = 4096;
constexpr size_t kPoolBytes = 2 * 1024 * 1024;
constexpr size_t kUpdatesPerRound = 40000;
constexpr size_t kWarmupUpdates = 2000;  // per round, untimed
constexpr size_t kReadEvery = 4;         // one read after every 4 updates
constexpr size_t kReadLimit = 64;
// Tail percentiles (see TailLatency).
constexpr int kUpdateTailPercentile = 99;
constexpr int kReadTailPercentile = 99;
// Rounds per requested second, sized so one run measures about --seconds
// on a 4-core x86 host. Every round starts from a fresh set-up.
constexpr double kRoundsPerSecond = 0.7;

incr::Query PagingQuery() {
  return incr::Query("Q", incr::Schema{A, B, C},
                     {incr::Atom{"R", incr::Schema{A, B}},
                      incr::Atom{"S", incr::Schema{A, C}}});
}

struct Op {
  int32_t rel;  // 0 = R, 1 = S
  int32_t sign;
  Value a, x;
};

struct Round {
  std::vector<Op> base;     // bulk-loaded rows (sign +1)
  std::vector<Op> updates;  // warm-up updates first
  std::vector<Value> reads;  // one A key per kReadEvery timed updates
};

Round GenerateRound(uint64_t seed, int round, Digest* digest) {
  incr::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED0000ull + round);
  const incr::ZipfSampler zipf(kDomA, kZipfS);
  Round r;
  std::vector<Op> live;
  for (int rel = 0; rel < 2; ++rel) {
    for (size_t i = 0; i < kBaseRows; ++i) {
      r.base.push_back(Op{rel, 1, static_cast<Value>(zipf.Sample(rng)),
                          rng.UniformInt(0, kDomBC - 1)});
    }
  }
  live = r.base;
  for (size_t i = 0; i < kWarmupUpdates + kUpdatesPerRound; ++i) {
    if (rng.Chance(0.2)) {
      const size_t k = rng.Uniform(live.size());
      Op op = live[k];
      live[k] = live.back();
      live.pop_back();
      op.sign = -1;
      r.updates.push_back(op);
    } else {
      const Op op{rng.Chance(0.5) ? 1 : 0, 1,
                  static_cast<Value>(zipf.Sample(rng)),
                  rng.UniformInt(0, kDomBC - 1)};
      live.push_back(op);
      r.updates.push_back(op);
    }
  }
  for (size_t i = 0; i < kUpdatesPerRound / kReadEvery; ++i) {
    r.reads.push_back(static_cast<Value>(zipf.Sample(rng)));
  }
  for (const std::vector<Op>* v : {&r.base, &r.updates}) {
    for (const Op& op : *v) {
      digest->AddI64(op.rel);
      digest->AddI64(op.sign);
      digest->AddI64(op.a);
      digest->AddI64(op.x);
    }
  }
  for (Value a : r.reads) digest->AddI64(a);
  return r;
}

const std::string& RelName(int32_t rel) {
  static const std::string kR = "R", kS = "S";
  return rel == 0 ? kR : kS;
}

incr::ViewTree<IntRing> MakeTree(const incr::StorageOptions& so) {
  auto t = incr::ViewTree<IntRing>::Make(PagingQuery(), so);
  INCR_CHECK(t.ok());
  return *std::move(t);
}

std::string Dump(incr::IvmEngine<IntRing>& e) {
  incr::store::ByteWriter w;
  INCR_CHECK(e.DumpState(w).ok());
  return w.Take();
}

// Opens a durable engine over a fresh paged tree in `dir`.
incr::StatusOr<std::unique_ptr<Durable>> OpenDurable(
    const incr::EngineOptions& eo) {
  return Durable::Open(std::make_unique<Engine>(MakeTree(eo.storage)), eo);
}

incr::ViewTree<IntRing>& TreeOf(Durable& d) {
  return static_cast<Engine&>(d.inner()).tree();
}

// Rows read and their payload sum, first `limit` rows of group A = a.
std::pair<uint64_t, int64_t> ReadGroup(const incr::ViewTree<IntRing>& t,
                                       Value a) {
  incr::Binding bind;
  bind.Bind(A, a);
  uint64_t rows = 0;
  int64_t sum = 0;
  for (incr::ViewTreeEnumerator<IntRing> it(t, bind);
       it.Valid() && rows < kReadLimit; it.Next()) {
    ++rows;
    sum += it.payload();
  }
  return {rows, sum};
}

}  // namespace

void RunPagedDurable(const Options& opts, Result* out) {
  const int rounds =
      std::max(2, static_cast<int>(opts.seconds * kRoundsPerSecond + 0.5));
  Digest digest;

  const std::string root = opts.workdir + "/paged-durable";
  std::filesystem::remove_all(root);
  incr::EngineOptions eo;
  eo.fsync = false;  // group_commit_window_us stays at its default
  eo.recover_on_open = true;
  eo.storage.backend = incr::StorageBackend::kPaged;
  eo.storage.page_bytes = kPageBytes;
  eo.storage.buffer_pool_bytes = kPoolBytes;
  eo.storage.spill_dir = root + "/spill";

  SpanLog log(0);
  SpanLog* trace = opts.trace ? &log : nullptr;
  RegistryTally tally;
  std::vector<double> setup_s, recover_s, update_ns, read_ns, round_rate;
  std::vector<double> load_ns, rebuild_ns, checkpoint_ns, scan_ns, replay_ns;
  std::vector<double> unlogged_ns, state_over_pool;
  incr::PageStoreStats pager{};
  uint64_t read_rows = 0, failed = 0;
  bool shadow_ok = true, recover_ok = true, pool_ok = true;
  std::string detail;

  for (int r = 0; r < rounds; ++r) {
    // Each round's inputs are a function of (seed, round), generated
    // before its set-up.
    const Round in = GenerateRound(opts.seed, r, &digest);
    eo.durability_dir = root + "/round-" + std::to_string(r);

    // Set-up: Open + bulk load + Rebuild + Checkpoint.
    const uint64_t s0 = NowNs();
    std::unique_ptr<Durable> eng;
    {
      ScopedSpan setup(trace, "paged.setup", "store", r);
      {
        ScopedSpan span(trace, "DurableEngine::Open", "store", r, setup.index());
        auto opened = OpenDurable(eo);
        if (!opened.ok()) {
          ++failed;
          detail = "open: " + opened.status().message();
          break;
        }
        eng = *std::move(opened);
      }
      incr::ViewTree<IntRing>& t = TreeOf(*eng);
      uint64_t t0 = NowNs();
      {
        ScopedSpan span(trace, "ViewTree::LoadAtom", "core", r, setup.index());
        for (const Op& op : in.base) {
          t.LoadAtom(static_cast<size_t>(op.rel), Tuple{op.a, op.x}, 1);
        }
      }
      uint64_t t1 = NowNs();
      {
        ScopedSpan span(trace, "ViewTree::Rebuild", "core", r, setup.index());
        t.Rebuild();
      }
      uint64_t t2 = NowNs();
      incr::Status st;
      {
        ScopedSpan span(trace, "DurableEngine::Checkpoint", "store", r,
                        setup.index());
        st = eng->Checkpoint();
      }
      load_ns.push_back(static_cast<double>(t1 - t0));
      rebuild_ns.push_back(static_cast<double>(t2 - t1));
      checkpoint_ns.push_back(static_cast<double>(NowNs() - t2));
      if (!st.ok()) {
        ++failed;
        detail = "checkpoint: " + st.message();
        break;
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - s0) * 1e-9);
    incr::ViewTree<IntRing>& tree = TreeOf(*eng);
    const double ratio = static_cast<double>(tree.StateBytes()) /
                         static_cast<double>(kPoolBytes);
    state_over_pool.push_back(ratio);
    pool_ok = pool_ok && ratio >= 4.0;

    for (size_t i = 0; i < kWarmupUpdates; ++i) {
      const Op& op = in.updates[i];
      eng->Update(RelName(op.rel), Tuple{op.a, op.x}, op.sign);
    }

    // Timed phase.
    const incr::PageStoreStats p0 = tree.page_store()->Stats();
    tally.Begin();
    double round_update_ns = 0;
    const size_t drop_at = kWarmupUpdates + kUpdatesPerRound / 2;
    for (size_t i = kWarmupUpdates; i < in.updates.size(); ++i) {
      const Op& op = in.updates[i];
      const uint64_t req = (static_cast<uint64_t>(r) << 32) | i;
      if (!(opts.drop_delta && r == 0 && i == drop_at)) {
        ScopedSpan span(trace, "DurableEngine::Update", "engines", req);
        const uint64_t t0 = NowNs();
        eng->Update(RelName(op.rel), Tuple{op.a, op.x}, op.sign);
        update_ns.push_back(static_cast<double>(NowNs() - t0));
        round_update_ns += update_ns.back();
      }
      const size_t k = i - kWarmupUpdates;
      if (k % kReadEvery == kReadEvery - 1) {
        ScopedSpan span(trace, "ViewTree::Enumerate(Binding)", "core", req);
        const uint64_t t0 = NowNs();
        read_rows += ReadGroup(tree, in.reads[k / kReadEvery]).first;
        read_ns.push_back(static_cast<double>(NowNs() - t0));
      }
    }
    tally.End();
    const incr::PageStoreStats p1 = tree.page_store()->Stats();
    pager.hits += p1.hits - p0.hits;
    pager.misses += p1.misses - p0.misses;
    pager.evictions += p1.evictions - p0.evictions;
    pager.writebacks += p1.writebacks - p0.writebacks;
    round_rate.push_back(static_cast<double>(kUpdatesPerRound) /
                         (round_update_ns * 1e-9));

    // Heap shadow: same load and updates, compared by DumpState bytes.
    const std::string before = Dump(*eng);
    {
      Engine heap(MakeTree(incr::StorageOptions{}));
      for (const Op& op : in.base) {
        heap.tree().LoadAtom(static_cast<size_t>(op.rel), Tuple{op.a, op.x}, 1);
      }
      heap.tree().Rebuild();
      for (const Op& op : in.updates) {
        heap.Update(RelName(op.rel), Tuple{op.a, op.x}, op.sign);
      }
      if (Dump(heap) != before && shadow_ok) {
        shadow_ok = false;
        detail = "round " + std::to_string(r) + ": paged state differs from heap";
      }
    }

    // Close, scan the log, reopen with recovery.
    eng.reset();
    {
      ScopedSpan span(trace, "store::ScanWal", "store", r);
      const uint64_t t0 = NowNs();
      auto scan = incr::store::ScanWal(incr::store::WalPath(eo.durability_dir));
      scan_ns.push_back(static_cast<double>(NowNs() - t0));
      if (!scan.ok()) ++failed;
    }
    {
      ScopedSpan span(trace, "DurableEngine::Open(recover)", "store", r);
      const uint64_t t0 = NowNs();
      auto reopened = OpenDurable(eo);
      recover_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      if (!reopened.ok()) {
        ++failed;
        recover_ok = false;
        detail = "recover: " + reopened.status().message();
      } else {
        replay_ns.push_back(
            static_cast<double>((*reopened)->recovery_info().replay_ns));
        if (Dump(**reopened) != before && recover_ok) {
          recover_ok = false;
          detail = "round " + std::to_string(r) + ": recovered state differs";
        }
      }
    }

    // Log overhead, traced run only: the same updates on an unlogged
    // paged engine.
    if (opts.trace) {
      incr::StorageOptions so = eo.storage;
      Engine plain(MakeTree(so));
      for (const Op& op : in.base) {
        plain.tree().LoadAtom(static_cast<size_t>(op.rel), Tuple{op.a, op.x}, 1);
      }
      plain.tree().Rebuild();
      for (size_t i = 0; i < in.updates.size(); ++i) {
        const Op& op = in.updates[i];
        const uint64_t t0 = NowNs();
        plain.Update(RelName(op.rel), Tuple{op.a, op.x}, op.sign);
        if (i >= kWarmupUpdates) {
          unlogged_ns.push_back(static_cast<double>(NowNs() - t0));
        }
      }
    }
    std::filesystem::remove_all(eo.durability_dir);
  }
  std::filesystem::remove_all(root);
  out->input_digest = digest.Hex();

  out->attempted += update_ns.size() + read_ns.size() + 2 * setup_s.size();
  out->failed += failed;
  out->Check("state_at_least_4x_pool", pool_ok && !state_over_pool.empty(),
             "min state/pool " +
                 std::to_string(state_over_pool.empty()
                                    ? 0
                                    : *std::min_element(state_over_pool.begin(),
                                                        state_over_pool.end())));
  out->Check("paged_eq_heap_shadow", shadow_ok && !setup_s.empty(),
             shadow_ok ? std::to_string(setup_s.size()) + " rounds" : detail);
  out->Check("recovered_dump_eq_before_close", recover_ok && !recover_s.empty(),
             recover_ok ? std::to_string(recover_s.size()) + " rounds" : detail);
  if (update_ns.empty()) return;

  const Tail tail = TailLatency(update_ns, kUpdateTailPercentile);
  const Tail read_tail = TailLatency(read_ns, kReadTailPercentile);
  out->E2e("deltas_per_s", Median(round_rate), "deltas/s", round_rate.size(),
           "median over rounds of updates / DurableEngine::Update time");
  out->E2e("update_p50_us", Median(update_ns) / 1e3, "us", update_ns.size(),
           "DurableEngine::Update call");
  out->E2e("update_tail_us", tail.value / 1e3, "us", update_ns.size(),
           tail.Note());
  out->E2e("read_p50_us", Median(read_ns) / 1e3, "us", read_ns.size(),
           "first 64 rows of one A group");
  out->E2e("read_tail_us", read_tail.value / 1e3, "us", read_ns.size(),
           read_tail.Note());
  out->E2e("setup_s", Median(setup_s), "s", setup_s.size(),
           "Open + LoadAtom + Rebuild + Checkpoint");
  out->E2e("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  out->E2e("recover_s", Median(recover_s), "s", recover_s.size(),
           "DurableEngine::Open with recovery after the timed phase");

  const double updates = static_cast<double>(update_ns.size());
  const double ops = updates + static_cast<double>(read_ns.size());
  const double recover_ms = Median(recover_s) * 1e3;
  out->Layer("engines.apply_mean_us", Mean(update_ns) / 1e3, "us",
             update_ns.size());
  out->Layer("core.load_ms", Median(load_ns) / 1e6, "ms", load_ns.size());
  out->Layer("core.rebuild_ms", Median(rebuild_ns) / 1e6, "ms",
             rebuild_ns.size());
  ReportPoolLayers(tally, out);
  ReportSharedLayers(tally, updates, updates, ops, /*pager=*/false, out);
  out->Layer("data.state_mb",
             Median(state_over_pool) * kPoolBytes / (1 << 20), "MiB");
  const double touches = static_cast<double>(pager.hits + pager.misses);
  out->Layer("pager.hit_ratio",
             touches > 0 ? static_cast<double>(pager.hits) / touches : 0,
             "fraction");
  out->Layer("pager.misses_per_op", static_cast<double>(pager.misses) / ops,
             "count");
  out->Layer("pager.writebacks_per_op",
             static_cast<double>(pager.writebacks) / ops, "count");
  out->Layer("pager.evictions", static_cast<double>(pager.evictions), "count");
  out->Layer("pager.state_over_pool", Median(state_over_pool), "ratio",
             state_over_pool.size());
  if (!unlogged_ns.empty()) {
    out->Layer("store.log_overhead_us",
               (Mean(update_ns) - Mean(unlogged_ns)) / 1e3, "us",
               unlogged_ns.size());
  }
  out->Layer("store.checkpoint_ms", Median(checkpoint_ns) / 1e6, "ms",
             checkpoint_ns.size());
  out->Layer("store.scan_ms", Median(scan_ns) / 1e6, "ms", scan_ns.size());
  out->Layer("store.replay_ms", Median(replay_ns) / 1e6, "ms", replay_ns.size());
  out->Layer("store.snapshot_load_ms",
             recover_ms - Median(scan_ns) / 1e6 - Median(replay_ns) / 1e6, "ms",
             recover_s.size());
  out->Layer("store.recover_s", Median(recover_s), "s", recover_s.size());

  out->Info("rounds", rounds);
  out->Info("updates_per_round", static_cast<double>(kUpdatesPerRound));
  out->Info("base_rows", static_cast<double>(2 * kBaseRows));
  out->Info("pool_bytes", static_cast<double>(kPoolBytes));
  out->Info("page_bytes", static_cast<double>(kPageBytes));
  out->Info("state_over_pool_min",
            *std::min_element(state_over_pool.begin(), state_over_pool.end()));
  out->Info("rows_per_read", static_cast<double>(read_rows) /
                                 static_cast<double>(read_ns.size()));
  out->InfoStr("flush_policy",
               "fsync off, group commit window " +
                   std::to_string(eo.group_commit_window_us) + " us");
  if (trace != nullptr) {
    for (const auto& [layer, ns] : LayerSelfNs({&log})) {
      out->Layer("self_ms." + layer, ns / 1e6, "ms");
    }
    out->Layer("trace.spans",
               static_cast<double>(WriteSpans(
                   opts.workdir + "/spans-paged-durable.json", {&log})),
               "count");
  }
}

}  // namespace perfbench
