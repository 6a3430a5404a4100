// E19: the cost of observability (DESIGN.md §obs). Every maintenance hook
// is gated on one relaxed obs::Enabled() load; when on, the engine facade
// adds two clock reads plus a histogram record per *batch* (not per
// delta), the view tree accumulates NodeObs per node per batch, and the
// flight recorder drops a span begin and end (two ring events, no clock
// read of their own) per batch, per view-tree node, and per engine facade
// call. E19 measures what that
// actually costs: the same workloads as E15 (retailer O(1) deltas,
// retailer fan-out, triangle) at threads=1, obs-off vs obs-on, interleaved
// min-of-reps per mode so the comparison sees the same thermal/cache
// conditions.
//
// The headline number is the geomean obs-on/obs-off ratio across the
// batch rows — the acceptance gate is <= 1.05 (5% overhead budget; CI
// smoke allows 1.10 for noisy shared runners). Single-tuple Update rows
// are reported too ("section": "update") but sit outside the gate: a
// per-update histogram on an O(1) hash update is the construction-site
// worst case, and the documented mitigation is batching or INCR_OBS=off,
// not pretending the clock reads are free.
//
// Results land in BENCH_obs.json: rows plus a top-level
// "geomean_batch_ratio" the CI guard parses. INCR_BENCH_SMOKE=1 shrinks
// reps and ops so the binary still exercises the full plumbing in seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"
#include "incr/workload/retailer.h"

using namespace incr;
using namespace incr::bench;

namespace {

enum : Var { A = 0, B = 1, C = 2 };

bool SmokeMode() {
  const char* v = std::getenv("INCR_BENCH_SMOKE");
  return v != nullptr && *v != '\0' && *v != '0';
}

struct Workload {
  std::string name;
  std::function<ViewTreeEngine<IntRing>()> build;
  std::function<Delta<IntRing>(Rng&)> draw;
};

ViewTreeEngine<IntRing> BuildRetailerEngine() {
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
  return ViewTreeEngine<IntRing>(*std::move(tree));
}

Workload RetailerInventoryWorkload() {
  return {
      "retailer-inventory",
      BuildRetailerEngine,
      [](Rng& rng) {
        return Delta<IntRing>{"Inventory",
                              Tuple{rng.UniformInt(0, 299),
                                    rng.UniformInt(0, 39),
                                    rng.UniformInt(0, 1999)},
                              1};
      },
  };
}

Workload RetailerItemWorkload() {
  return {
      "retailer-item",
      BuildRetailerEngine,
      [](Rng& rng) {
        return Delta<IntRing>{"Item", Tuple{rng.UniformInt(0, 1999)}, 1};
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
        return ViewTreeEngine<IntRing>(*std::move(tree));
      },
      [v](Rng& rng) {
        return Delta<IntRing>{"R", Tuple{rng.UniformInt(0, v - 1),
                                         rng.UniformInt(0, v - 1)}, 1};
      },
  };
}

// One timed pass over a fresh engine: `batch_size` 0 means single-tuple
// Updates through the per-update facade, otherwise ApplyBatch through the
// batch facade. The usual insert/negate alternation keeps the database at
// its preloaded size, and one untimed warm-up pair covers cold caches.
// `obs_on` is set for exactly the measured region.
double MeasurePass(const Workload& w, bool obs_on, int64_t batch_size,
                   int64_t total_ops) {
  ViewTreeEngine<IntRing> engine = w.build();
  const int64_t per_rep = batch_size > 0 ? batch_size : 1000;
  int64_t reps = std::max<int64_t>(2, total_ops / per_rep);
  if (reps % 2 != 0) ++reps;
  Rng rng(13);
  std::vector<Delta<IntRing>> batch;
  double secs = 0;
  int64_t ops = 0;
  obs::SetEnabled(obs_on);
  for (int64_t rep = -2; rep < reps; ++rep) {
    if (rep % 2 == 0) {
      batch.clear();
      for (int64_t i = 0; i < per_rep; ++i) batch.push_back(w.draw(rng));
    } else {
      for (auto& d : batch) d.delta = -d.delta;
    }
    Stopwatch sw;
    if (batch_size > 0) {
      engine.ApplyBatch(batch);
    } else {
      for (const auto& d : batch) engine.Update(d.relation, d.tuple, d.delta);
    }
    if (rep >= 0) {
      secs += sw.ElapsedSeconds();
      ops += per_rep;
    }
  }
  obs::SetEnabled(false);
  return NsPerOp(secs, ops);
}

// Interleaved min-of-reps: off/on/off/on... so both modes sample the same
// machine state. Min (not mean) because hook overhead is a constant cost
// and the noise is one-sided.
struct Cell {
  double off_ns = 0;
  double on_ns = 0;
};

Cell MeasureCell(const Workload& w, int64_t batch_size, int64_t total_ops,
                 int reps) {
  Cell c;
  c.off_ns = c.on_ns = 0;
  for (int r = 0; r < reps; ++r) {
    const double off = MeasurePass(w, /*obs_on=*/false, batch_size, total_ops);
    const double on = MeasurePass(w, /*obs_on=*/true, batch_size, total_ops);
    c.off_ns = r == 0 ? off : std::min(c.off_ns, off);
    c.on_ns = r == 0 ? on : std::min(c.on_ns, on);
  }
  return c;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const int64_t total_ops = smoke ? 4000 : 20000;
  const int reps = smoke ? 2 : 5;
  const bool was_enabled = obs::Enabled();

  Section("E19: observability overhead, obs-on vs obs-off (ns/delta)");
  std::printf("threads=1, interleaved min of %d rep(s)%s\n", reps,
              smoke ? "  [SMOKE]" : "");
  Row({"query", "batch", "off ns", "on ns", "on/off"});
  JsonArrayWriter json;

  double log_sum = 0;
  size_t log_n = 0;
  const std::vector<int64_t> batches =
      smoke ? std::vector<int64_t>{1000} : std::vector<int64_t>{100, 1000};
  for (const Workload& w :
       {RetailerInventoryWorkload(), RetailerItemWorkload(),
        TriangleWorkload()}) {
    for (int64_t batch : batches) {
      const Cell c = MeasureCell(w, batch, total_ops, reps);
      const double ratio = c.off_ns > 0 ? c.on_ns / c.off_ns : 1.0;
      log_sum += std::log(ratio);
      ++log_n;
      Row({w.name, FmtInt(batch), Fmt(c.off_ns), Fmt(c.on_ns),
           Fmt(ratio, "%.3f")});
      json.BeginObject();
      json.Field("section", std::string("batch"));
      json.Field("query", w.name);
      json.Field("batch", batch);
      json.Field("off_ns_per_delta", c.off_ns);
      json.Field("on_ns_per_delta", c.on_ns);
      json.Field("ratio", ratio);
      json.EndObject();
    }
  }
  const double geomean = log_n > 0 ? std::exp(log_sum / log_n) : 1.0;
  std::printf("geomean on/off across batch rows: %.3f (budget 1.05)\n",
              geomean);

  // The out-of-gate worst case: single-tuple Update on the O(1) delta
  // stream, where two clock reads and a histogram record compete with a
  // few hash probes. Reported so the number is public, not gated.
  const Workload upd = RetailerInventoryWorkload();
  const Cell uc = MeasureCell(upd, /*batch_size=*/0, total_ops, reps);
  const double uratio = uc.off_ns > 0 ? uc.on_ns / uc.off_ns : 1.0;
  Row({upd.name, "update", Fmt(uc.off_ns), Fmt(uc.on_ns),
       Fmt(uratio, "%.3f")});
  json.BeginObject();
  json.Field("section", std::string("update"));
  json.Field("query", upd.name);
  json.Field("batch", static_cast<int64_t>(1));
  json.Field("off_ns_per_delta", uc.off_ns);
  json.Field("on_ns_per_delta", uc.on_ns);
  json.Field("ratio", uratio);
  json.EndObject();

  json.RawSection("geomean_batch_ratio", Fmt(geomean, "%.6f"));
  if (json.WriteFile("BENCH_obs.json")) {
    std::printf("\nwrote BENCH_obs.json\n");
  }
  std::printf(
      "expected shape: batch rows hug 1.00 — the facade pays per batch and "
      "NodeObs per node per batch, both amortized over the deltas; the "
      "single-update row shows the unamortized hook (clock reads vs an "
      "O(1) probe) and motivates the kill-switch\n");

  obs::SetEnabled(was_enabled);
  return geomean <= (smoke ? 1.10 : 1.05) ? 0 : 1;
}
