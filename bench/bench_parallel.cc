// E15 + E18: morsel-driven parallel batch maintenance (DESIGN.md §"Parallel
// batch maintenance").
//
// E15 sweeps thread counts {1, 2, 4, 8} x batch sizes {100, 1k, 10k}; E18
// sweeps the morsel size (INCR_MORSEL_BYTES) at a fixed thread count on the
// fan-out workloads. Three workloads on the node-at-a-time batch path:
//
//   * retailer-inventory: the Fig. 4 Retailer 5-way join under its F-IVM
//     order, streaming Inventory deltas — each delta propagates in O(1), so
//     per-delta work is tiny and the parallel layer's shard/merge overhead
//     dominates: the *negative control* (q-hierarchical-style O(1) updates
//     have nothing to parallelize; THEORY.md's cost model).
//   * retailer-item: the same join, streaming Item(ksn) deltas — each delta
//     fans out to every (locn, date) holding that item, real per-delta
//     work: the case parallelism is for.
//   * triangle: the cyclic triangle count under a path order — multi-atom
//     probing, medium fan-out.
//
// threads == 1 short-circuits to the exact sequential path (no pool, no
// partitioning); speedups are reported relative to it. The final aggregate
// of every cell is checked identical across all thread counts AND all
// morsel sizes — the headline determinism invariant, measured for free.
// Results land in BENCH_parallel.json ("build" records the host's
// hardware_concurrency so readers can judge the thread sweep; a 1-core run
// legitimately shows no speedup). Expected shape on a multi-core host:
// retailer-item and triangle scale toward min(threads, cores) until the
// shard-fold floor bites; retailer-inventory (O(1) deltas) stays flat.
//
// INCR_BENCH_SMOKE=1 shrinks both sweeps so CI can exercise the full
// binary — including the JSON plumbing the regression guard parses — in
// seconds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "incr/core/view_tree.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"
#include "incr/workload/retailer.h"

using namespace incr;
using namespace incr::bench;

namespace {

enum : Var { A = 0, B = 1, C = 2 };

using Entry = ViewTree<IntRing>::BatchEntry;

bool SmokeMode() {
  const char* v = std::getenv("INCR_BENCH_SMOKE");
  return v != nullptr && *v != '\0' && *v != '0';
}

struct Workload {
  std::string name;
  std::function<ViewTree<IntRing>()> build;
  std::function<Entry(Rng&)> draw;
};

// A preloaded Retailer tree: dimensions plus a base of Inventory facts.
ViewTree<IntRing> BuildRetailerTree() {
  RetailerWorkload wl(/*n_locations=*/300, /*n_dates=*/40, /*n_items=*/2000,
                      /*seed=*/11);
  auto tree = ViewTree<IntRing>::Make(wl.query(), wl.Order());
  INCR_CHECK(tree.ok());
  auto preload = [&](size_t atom, const std::vector<Tuple>& rows) {
    for (const Tuple& t : rows) tree->LoadAtom(atom, t, 1);
  };
  preload(RetailerWorkload::kLocation, wl.locations());
  preload(RetailerWorkload::kCensus, wl.censuses());
  preload(RetailerWorkload::kItem, wl.items());
  preload(RetailerWorkload::kWeather, wl.weathers());
  for (int64_t i = 0; i < 30000; ++i) {
    tree->LoadAtom(RetailerWorkload::kInventory, wl.NextInventoryInsert(), 1);
  }
  tree->Rebuild();
  return *std::move(tree);
}

Workload RetailerInventoryWorkload() {
  return {
      "retailer-inventory",
      BuildRetailerTree,
      [](Rng& rng) {
        return Entry{RetailerWorkload::kInventory,
                     Tuple{rng.UniformInt(0, 299), rng.UniformInt(0, 39),
                           rng.UniformInt(0, 1999)},
                     1};
      },
  };
}

Workload RetailerItemWorkload() {
  return {
      "retailer-item",
      BuildRetailerTree,
      [](Rng& rng) {
        return Entry{RetailerWorkload::kItem, Tuple{rng.UniformInt(0, 1999)},
                     1};
      },
  };
}

Workload TriangleWorkload() {
  const int64_t v = 256;
  const int64_t edges = 20000;
  Query q("Q", Schema{},
          {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B, C}},
           Atom{"T", Schema{C, A}}});
  return {
      "triangle",
      [q, v, edges] {
        auto vo = VariableOrder::FromPath(q, {A, B, C});
        INCR_CHECK(vo.ok());
        auto tree = ViewTree<IntRing>::Make(q, *vo);
        INCR_CHECK(tree.ok());
        Rng rng(7);
        for (size_t a = 0; a < 3; ++a) {
          for (int64_t i = 0; i < edges; ++i) {
            tree->UpdateAtom(a, Tuple{rng.UniformInt(0, v - 1),
                                      rng.UniformInt(0, v - 1)}, 1);
          }
        }
        return *std::move(tree);
      },
      [v](Rng& rng) {
        return Entry{0, Tuple{rng.UniformInt(0, v - 1),
                              rng.UniformInt(0, v - 1)}, 1};
      },
  };
}

// One (workload, threads, morsel, batch) cell: fresh preloaded tree,
// SetThreads + SetMorselBytes, then the usual insert/retract alternation
// (even reps insert a fresh batch, odd ones negate it) so the database
// stays near its preloaded size. Returns ns/delta; *aggregate gets the
// final state fingerprint.
double MeasureCell(const Workload& w, size_t threads, size_t morsel_bytes,
                   int64_t batch_size, int64_t total_ops,
                   int64_t* aggregate) {
  ViewTree<IntRing> tree = w.build();
  tree.SetThreads(threads);
  tree.SetMorselBytes(morsel_bytes);
  int64_t reps = std::max<int64_t>(2, total_ops / batch_size);
  if (reps % 2 != 0) ++reps;
  Rng rng(13);
  std::vector<Entry> batch;
  double secs = 0;
  int64_t ops = 0;
  // One untimed insert+retract warm-up pair: touches the views, the pool,
  // and the allocator so short (smoke) runs measure steady state, not the
  // first batch's cold caches — the regression guard compares smoke runs
  // against full-run baselines.
  for (int64_t rep = -2; rep < reps; ++rep) {
    if (rep % 2 == 0) {  // -2 included: fresh batch, then its negation
      batch.clear();
      for (int64_t i = 0; i < batch_size; ++i) batch.push_back(w.draw(rng));
    } else {
      for (Entry& e : batch) e.delta = -e.delta;
    }
    if (rep < 0) {
      tree.ApplyBatch(std::span<const Entry>(batch));
      continue;
    }
    Stopwatch sw;
    tree.ApplyBatch(std::span<const Entry>(batch));
    secs += sw.ElapsedSeconds();
    ops += batch_size;
  }
  *aggregate = tree.Aggregate();
  return NsPerOp(secs, ops);
}

}  // namespace

int main() {
  // Record hooks on for the whole run: the artifact's "stats" section
  // (below) carries the registry — notably pool.steal_fail, the measured
  // cost of work-stealing across the whole sweep.
  obs::SetEnabled(true);
  const bool smoke = SmokeMode();
  const int64_t total_ops = smoke ? 4000 : 12000;
  const unsigned hw = std::thread::hardware_concurrency();
  Section("E15: morsel-parallel vs sequential batches (ns/delta)");
  std::printf(
      "hardware_concurrency %u; shards fixed at %zu; threads only decide "
      "who runs the morsel grid%s\n",
      hw, kParallelShards,
      smoke ? "  [SMOKE]" : "");
  Row({"query", "batch", "threads", "ns/delta", "speedup"});
  JsonArrayWriter json;
  const std::vector<int64_t> batches =
      smoke ? std::vector<int64_t>{1000}
            : std::vector<int64_t>{100, 1000, 10000};
  const std::vector<size_t> thread_sweep =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};
  for (const Workload& w :
       {RetailerInventoryWorkload(), RetailerItemWorkload(),
        TriangleWorkload()}) {
    for (int64_t batch : batches) {
      double base_ns = 0;
      int64_t base_agg = 0;
      for (size_t threads : thread_sweep) {
        int64_t agg = 0;
        double ns =
            MeasureCell(w, threads, /*morsel_bytes=*/0, batch, total_ops,
                        &agg);
        if (threads == 1) {
          base_ns = ns;
          base_agg = agg;
        } else {
          // Determinism invariant: identical final state at every thread
          // count (aggregate as fingerprint; the test suite checks views).
          INCR_CHECK(agg == base_agg);
        }
        double speedup = ns > 0 ? base_ns / ns : 0;
        Row({w.name, FmtInt(batch), FmtInt(static_cast<int64_t>(threads)),
             Fmt(ns), Fmt(speedup, "%.2f")});
        json.BeginObject();
        json.Field("section", std::string("threads"));
        json.Field("query", w.name);
        json.Field("batch", batch);
        json.Field("threads", static_cast<int64_t>(threads));
        json.Field("morsel_bytes", static_cast<int64_t>(0));
        json.Field("ns_per_delta", ns);
        json.Field("speedup_vs_seq", speedup);
        json.EndObject();
      }
    }
  }

  // E18: the morsel-size sweep. Fixed thread count, fan-out workloads
  // (the ones with real work per grid cell), morsel sizes
  // from one-cache-line to effectively-one-morsel. Scheduling only:
  // every cell must land on the same aggregate.
  Section("E18: morsel-size sweep (ns/delta)");
  const size_t sweep_threads = smoke ? 2 : 4;
  const int64_t sweep_batch = smoke ? 1000 : 10000;
  std::printf("threads fixed at %zu, batch %lld; 0 = cache-sized default\n",
              sweep_threads, static_cast<long long>(sweep_batch));
  Row({"query", "morsel B", "ns/delta", "vs default"});
  const std::vector<size_t> morsels =
      smoke ? std::vector<size_t>{0, 64, 65536}
            : std::vector<size_t>{0,    64,    1024, 4096,
                                  16384, 65536, size_t{1} << 20};
  for (const Workload& w : {RetailerItemWorkload(), TriangleWorkload()}) {
    double default_ns = 0;
    int64_t base_agg = 0;
    bool have_base = false;
    for (size_t morsel : morsels) {
      int64_t agg = 0;
      double ns = MeasureCell(w, sweep_threads, morsel, sweep_batch,
                              total_ops, &agg);
      if (!have_base) {
        default_ns = ns;
        base_agg = agg;
        have_base = true;
      } else {
        INCR_CHECK(agg == base_agg);  // morsel size is pure scheduling
      }
      double rel = ns > 0 ? default_ns / ns : 0;
      Row({w.name, FmtInt(static_cast<int64_t>(morsel)), Fmt(ns),
           Fmt(rel, "%.2f")});
      json.BeginObject();
      json.Field("section", std::string("morsel"));
      json.Field("query", w.name);
      json.Field("batch", sweep_batch);
      json.Field("threads", static_cast<int64_t>(sweep_threads));
      json.Field("morsel_bytes", static_cast<int64_t>(morsel));
      json.Field("ns_per_delta", ns);
      json.Field("speedup_vs_seq", rel);
      json.EndObject();
    }
  }

  // The observability registry accumulated over every cell: counters
  // (pool.steal_fail, pool.tasks, ...), gauges, and latency histograms.
  // "build" already records hardware_concurrency, so a reader can relate
  // the steal-fail volume to the machine the sweep ran on.
  json.RawSection("stats", obs::MetricsRegistry::Global().Snapshot().ToJson());

  if (json.WriteFile("BENCH_parallel.json")) {
    std::printf("\nwrote BENCH_parallel.json\n");
  }
  std::printf(
      "expected multi-core shape: retailer-item and triangle approach "
      "min(threads, cores) at batch 10k; retailer-inventory (O(1) deltas) "
      "stays flat — parallelism cannot beat constant-time sequential work; "
      "tiny morsels pay claim/steal overhead, huge morsels starve threads\n");
  return 0;
}
