// bulk-fanout: the Retailer 5-way join on the heap backend, driven with
// 10k-delta ApplyBatch calls through the IvmEngine facade.
//
// Half of every batch is Item(ksn) +-1 deltas, each of which fans out to
// every Inventory row holding that item (the ByRange path); the other half
// is Inventory inserts with 10% deletes of earlier inserts (the O(1) ByKey
// path). The identical stream runs on a threads = 1 engine and on a
// threads = nproc engine: first every round on the threads = 1 engine,
// then every fourth round again on the nproc engine, checked against the
// first.
// Between batches the threads = 1 engine serves bound-group reads: the
// rows of one location, through ViewTreeEnumerator with locn bound.
//
// The end-to-end metrics are the threads = 1 engine's. The nproc engine's
// throughput depends on how fast parked pool workers wake, which on a
// shared virtual host swings by 2x from one minute to the next; it is
// reported beside them and as per-layer metrics (parallel.*, pool.*), and
// is too unsteady to carry a regression bound.
#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"
#include "incr/workload/retailer.h"

namespace perfbench {
namespace {

using incr::Delta;
using incr::IntRing;
using incr::RetailerWorkload;
using incr::Tuple;
using incr::Value;
using Engine = incr::ViewTreeEngine<IntRing>;

constexpr int64_t kLocations = 300;
constexpr int64_t kDates = 40;
constexpr int64_t kItems = 2000;
constexpr int64_t kBaseInventory = 15000;
constexpr size_t kBatch = 10000;
constexpr int kWarmupBatches = 1;  // per round, untimed
constexpr int kTimedBatches = 8;   // per round
constexpr int kReadsPerBatch = 16;
constexpr int kParallelEvery = 4;  // rounds re-run on the nproc engine
// Tail percentiles (see TailLatency).
constexpr int kUpdateTailPercentile = 95;
constexpr int kReadTailPercentile = 90;
// Rounds per requested second, sized so one run measures about --seconds
// on a 4-core x86 host. Every round starts from freshly set-up engines, so
// the state stays near the base size however long the run is.
constexpr double kRoundsPerSecond = 2.6;

// One generated delta, compact so the whole stream fits in a few MiB; it
// is expanded into the facade's Delta form before each timed call.
struct Op {
  int16_t atom;  // RetailerWorkload::kItem or kInventory
  int16_t sign;
  int32_t v[3];
};

struct Round {
  std::vector<std::vector<Op>> batches;  // warm-up batches first
  std::vector<Value> read_locations;     // kReadsPerBatch per timed batch
};

// Inventory rows drawn like RetailerWorkload::NextInventoryInsert: uniform
// location and date, Zipf(1.05) item.
Tuple DrawInventory(incr::Rng& rng, const incr::ZipfSampler& items) {
  const Value locn = rng.UniformInt(0, kLocations - 1);
  const Value date = rng.UniformInt(0, kDates - 1);
  return Tuple{locn, date, static_cast<Value>(items.Sample(rng))};
}

std::vector<Tuple> GenerateBase(uint64_t seed, Digest* digest) {
  incr::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xBA5E);
  const incr::ZipfSampler items(kItems, 1.05);
  std::vector<Tuple> base;
  for (int64_t i = 0; i < kBaseInventory; ++i) {
    base.push_back(DrawInventory(rng, items));
    for (Value v : base.back()) digest->AddI64(v);
  }
  return base;
}

// Round `r`'s stream, a function of (seed, r) alone, so phase 2 can
// regenerate it instead of holding every round in memory. Generated
// before the round's timed batches.
Round GenerateRound(uint64_t seed, int r, const std::vector<Tuple>& base,
                    Digest* digest) {
  incr::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xB0F0000ull + r);
  const incr::ZipfSampler items(kItems, 1.05);
  Round round;
  std::vector<Tuple> live = base;  // rows a delete may retract
  std::vector<uint8_t> item_extra(static_cast<size_t>(kItems), 0);
  for (int b = 0; b < kWarmupBatches + kTimedBatches; ++b) {
    std::vector<Op> batch;
    batch.reserve(kBatch);
    const size_t live_before = live.size();  // deletes retract older rows
    for (size_t i = 0; i < kBatch; ++i) {
      Op op{};
      if (i % 2 == 0) {
        // Item toggles between multiplicity 1 and 2.
        const Value ksn = rng.UniformInt(0, kItems - 1);
        uint8_t& extra = item_extra[static_cast<size_t>(ksn)];
        op = Op{static_cast<int16_t>(RetailerWorkload::kItem),
                static_cast<int16_t>(extra == 0 ? 1 : -1),
                {static_cast<int32_t>(ksn), 0, 0}};
        extra ^= 1;
      } else {
        int16_t sign = 1;
        Tuple t;
        if (rng.Chance(0.1)) {
          const size_t k = rng.Uniform(std::min(live_before, live.size()));
          t = live[k];
          live[k] = live.back();
          live.pop_back();
          sign = -1;
        } else {
          t = DrawInventory(rng, items);
          live.push_back(t);
        }
        op = Op{static_cast<int16_t>(RetailerWorkload::kInventory), sign,
                {static_cast<int32_t>(t[0]), static_cast<int32_t>(t[1]),
                 static_cast<int32_t>(t[2])}};
      }
      if (digest != nullptr) {
        digest->AddI64(op.atom);
        digest->AddI64(op.sign);
        for (int32_t v : op.v) digest->AddI64(v);
      }
      batch.push_back(op);
    }
    round.batches.push_back(std::move(batch));
  }
  for (int i = 0; i < kTimedBatches * kReadsPerBatch; ++i) {
    round.read_locations.push_back(rng.UniformInt(0, kLocations - 1));
    if (digest != nullptr) digest->AddI64(round.read_locations.back());
  }
  return round;
}

std::vector<Delta<IntRing>> Expand(const std::vector<Op>& ops) {
  static const std::string kItemRel = "Item";
  static const std::string kInvRel = "Inventory";
  std::vector<Delta<IntRing>> out;
  out.reserve(ops.size());
  for (const Op& op : ops) {
    if (op.atom == static_cast<int16_t>(RetailerWorkload::kItem)) {
      out.push_back({kItemRel, Tuple{op.v[0]}, op.sign});
    } else {
      out.push_back({kInvRel, Tuple{op.v[0], op.v[1], op.v[2]}, op.sign});
    }
  }
  return out;
}

struct Built {
  std::unique_ptr<Engine> engine;
  double load_ns = 0;
  double rebuild_ns = 0;
};

// Set-up of one engine: dimension tables plus the Inventory base through
// LoadAtom, then one Rebuild.
Built Setup(const RetailerWorkload& wl, const std::vector<Tuple>& base,
            size_t threads,
            SpanLog* log) {
  ScopedSpan setup(log, "bulk.setup", "core");
  auto tree = incr::ViewTree<IntRing>::Make(wl.query(), wl.Order());
  INCR_CHECK(tree.ok());
  incr::EngineOptions eo;
  eo.threads = threads;
  Built b;
  b.engine = std::make_unique<Engine>(*std::move(tree), eo);
  incr::ViewTree<IntRing>& t = b.engine->tree();
  uint64_t t0 = NowNs();
  {
    ScopedSpan span(log, "ViewTree::LoadAtom", "core", 0, setup.index());
    for (const Tuple& x : wl.locations()) t.LoadAtom(RetailerWorkload::kLocation, x, 1);
    for (const Tuple& x : wl.censuses()) t.LoadAtom(RetailerWorkload::kCensus, x, 1);
    for (const Tuple& x : wl.items()) t.LoadAtom(RetailerWorkload::kItem, x, 1);
    for (const Tuple& x : wl.weathers()) t.LoadAtom(RetailerWorkload::kWeather, x, 1);
    for (const Tuple& x : base) {
      t.LoadAtom(RetailerWorkload::kInventory, x, 1);
    }
  }
  uint64_t t1 = NowNs();
  {
    ScopedSpan span(log, "ViewTree::Rebuild", "core", 0, setup.index());
    t.Rebuild();
  }
  b.load_ns = static_cast<double>(t1 - t0);
  b.rebuild_ns = static_cast<double>(NowNs() - t1);
  return b;
}

// Rows and payload sum of one location's group.
std::pair<uint64_t, int64_t> ReadLocation(const incr::ViewTree<IntRing>& t,
                                          Value locn) {
  incr::Binding bind;
  bind.Bind(RetailerWorkload::kLocn, locn);
  uint64_t rows = 0;
  int64_t sum = 0;
  for (incr::ViewTreeEnumerator<IntRing> it(t, bind); it.Valid(); it.Next()) {
    ++rows;
    sum += it.payload();
  }
  return {rows, sum};
}

std::vector<std::pair<Tuple, int64_t>> SortedOutput(Engine& e) {
  std::vector<std::pair<Tuple, int64_t>> rows;
  e.Enumerate([&](const Tuple& t, const int64_t& p) { rows.emplace_back(t, p); });
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::lexicographical_compare(a.first.begin(), a.first.end(),
                                        b.first.begin(), b.first.end());
  });
  return rows;
}

}  // namespace

void RunBulkFanout(const Options& opts, Result* out) {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const int rounds =
      std::max(2, static_cast<int>(opts.seconds * kRoundsPerSecond + 0.5));
  RetailerWorkload wl(kLocations, kDates, kItems, opts.seed);
  Digest digest;
  const std::vector<Tuple> base = GenerateBase(opts.seed, &digest);

  SpanLog log(0);
  SpanLog* trace = opts.trace ? &log : nullptr;
  RegistryTally par_tally, tally;  // nproc engine; threads = 1 engine
  std::vector<double> setup_s, load_ns, rebuild_ns;  // threads = 1 set-ups
  std::vector<double> par_ns, seq_ns, read_ns, round_rate, round_rate_1t;
  uint64_t deltas = 0, read_rows = 0;
  double tuples_out = 0, top_share = 0, state_bytes = 0;
  bool agg_ok = true, enum_ok = true, read_ok = true;
  std::string agg_detail, enum_detail;

  // One engine's pass over one round: warm-up batch, then the timed
  // batches (and, for the threads = 1 engine, the reads after each).
  // Returns the round's deltas / ApplyBatch time.
  auto run_round = [&](Engine& e, const Round& round, int r, bool is_par,
                       RegistryTally* t, std::vector<double>* ns) {
    for (int b = 0; b < kWarmupBatches; ++b) {
      e.ApplyBatch(Expand(round.batches[static_cast<size_t>(b)]));
    }
    e.tree().ResetNodeStats();
    double round_ns = 0;
    uint64_t round_deltas = 0;
    for (int b = 0; b < kTimedBatches; ++b) {
      const size_t bi = static_cast<size_t>(kWarmupBatches + b);
      const uint64_t req = static_cast<uint64_t>(r) * 1000 + bi;
      const auto batch = Expand(round.batches[bi]);
      std::span<const Delta<IntRing>> applied(batch);
      // Fault injection: the nproc engine misses one delta of one batch.
      if (is_par && opts.drop_delta && r == rounds - 1 && b == 0) {
        applied = applied.subspan(1);
      }
      t->Begin();
      {
        ScopedSpan span(trace,
                        is_par ? "IvmEngine::ApplyBatch[nproc]"
                               : "IvmEngine::ApplyBatch[1t]",
                        "engines", req);
        const uint64_t t0 = NowNs();
        e.ApplyBatch(applied);
        ns->push_back(static_cast<double>(NowNs() - t0));
      }
      t->End();
      round_ns += ns->back();
      round_deltas += batch.size();
      if (is_par) continue;
      for (int k = 0; k < kReadsPerBatch; ++k) {
        const Value locn =
            round.read_locations[static_cast<size_t>(b * kReadsPerBatch + k)];
        ScopedSpan span(trace, "ViewTree::Enumerate(Binding)", "core", req);
        const uint64_t t0 = NowNs();
        read_rows += ReadLocation(e.tree(), locn).first;
        read_ns.push_back(static_cast<double>(NowNs() - t0));
      }
    }
    if (!is_par) deltas += round_deltas;
    return static_cast<double>(round_deltas) / (round_ns * 1e-9);
  };

  // Phase 1, threads = 1: the gated metrics. Nothing else runs in the
  // process meanwhile -- interleaving the nproc engine's batches doubled
  // the run-to-run spread of these numbers. The reference results of each
  // round are kept for phase 2's checks.
  std::vector<int64_t> ref_agg;
  std::vector<std::pair<uint64_t, int64_t>> ref_read;
  std::vector<std::pair<Tuple, int64_t>> ref_rows;
  for (int r = 0; r < rounds; ++r) {
    const Round round = GenerateRound(opts.seed, r, base, &digest);
    const uint64_t t0 = NowNs();
    Built built = Setup(wl, base, 1, trace);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    load_ns.push_back(built.load_ns);
    rebuild_ns.push_back(built.rebuild_ns);
    Engine& seq = *built.engine;
    round_rate_1t.push_back(run_round(seq, round, r, false, &tally, &seq_ns));

    // Node counters of the round's timed batches.
    double top_ns = 0, all_ns = 0;
    for (size_t n = 0; n < seq.tree().plan().nodes().size(); ++n) {
      const auto& st = seq.tree().node_stats(static_cast<int>(n));
      tuples_out += static_cast<double>(st.tuples_out);
      all_ns += static_cast<double>(st.apply_ns);
      top_ns = std::max(top_ns, static_cast<double>(st.apply_ns));
    }
    top_share += all_ns > 0 ? top_ns / all_ns : 0;
    state_bytes += static_cast<double>(seq.tree().StateBytes());
    ref_agg.push_back(seq.tree().Aggregate());
    ref_read.push_back(ReadLocation(seq.tree(), round.read_locations.front()));
    if (r + 1 == rounds) ref_rows = SortedOutput(seq);
  }

  const double peak_rss_1t = PeakRssMiB();
  out->input_digest = digest.Hex();

  // Phase 2, threads = nproc: every kParallelEvery-th round again, ending
  // with the last, checked against phase 1 on the aggregate, one
  // location's group, and (last round) the sorted full enumeration.
  for (int r = (rounds - 1) % kParallelEvery; r < rounds; r += kParallelEvery) {
    const Round round = GenerateRound(opts.seed, r, base, nullptr);
    Built built = Setup(wl, base, nproc, trace);
    Engine& par = *built.engine;
    round_rate.push_back(run_round(par, round, r, true, &par_tally, &par_ns));
    const int64_t agg = par.tree().Aggregate();
    if (agg != ref_agg[static_cast<size_t>(r)] && agg_ok) {
      agg_ok = false;
      agg_detail = "round " + std::to_string(r) + ": " + std::to_string(agg) +
                   " vs " + std::to_string(ref_agg[static_cast<size_t>(r)]);
    }
    read_ok = read_ok && ReadLocation(par.tree(), round.read_locations.front()) ==
                             ref_read[static_cast<size_t>(r)];
    if (r + 1 < rounds) continue;
    const auto rows = SortedOutput(par);
    if (rows != ref_rows && enum_ok) {
      enum_ok = false;
      enum_detail = "round " + std::to_string(r) + ": " +
                    std::to_string(rows.size()) + " vs " +
                    std::to_string(ref_rows.size()) + " rows";
    }
  }
  out->attempted += par_ns.size() + seq_ns.size() + read_ns.size();
  out->Check("aggregate_nproc_eq_1t", agg_ok,
             agg_ok ? std::to_string(round_rate.size()) + " rounds" : agg_detail);
  out->Check("enumeration_nproc_eq_1t", enum_ok,
             enum_ok ? "last round" : enum_detail);
  out->Check("group_read_nproc_eq_1t", read_ok,
             "one location in each of " + std::to_string(round_rate.size()) +
                 " rounds");

  const double rate = Median(round_rate_1t);
  const double rate_nproc = Median(round_rate);
  const Tail tail = TailLatency(seq_ns, kUpdateTailPercentile);
  const Tail read_tail = TailLatency(read_ns, kReadTailPercentile);
  out->E2e("deltas_per_s", rate, "deltas/s", round_rate_1t.size(),
           "threads = 1 engine: median over rounds of deltas / ApplyBatch "
           "time");
  out->E2e("update_p50_us", Median(seq_ns) / 1e3, "us", seq_ns.size(),
           "IvmEngine::ApplyBatch of 10k deltas, threads = 1");
  out->E2e("update_tail_us", tail.value / 1e3, "us", seq_ns.size(),
           tail.Note());
  out->E2e("read_p50_us", Median(read_ns) / 1e3, "us", read_ns.size(),
           "one location's rows, locn bound");
  out->E2e("read_tail_us", read_tail.value / 1e3, "us", read_ns.size(),
           read_tail.Note());
  out->E2e("setup_s", Median(setup_s), "s", setup_s.size(),
           "threads = 1 engine: LoadAtom (dimensions + Inventory base) + "
           "Rebuild");
  out->E2e("peak_rss_mb", peak_rss_1t, "MiB", 1,
           "through the threads = 1 phase");
  out->E2e("deltas_per_s_nproc", rate_nproc, "deltas/s", round_rate.size(),
           "threads = " + std::to_string(nproc) + " engine, same stream");
  out->E2e("update_p50_us_nproc", Median(par_ns) / 1e3, "us", par_ns.size(),
           "IvmEngine::ApplyBatch of 10k deltas, threads = nproc");

  const double batches = static_cast<double>(seq_ns.size());
  out->Layer("engines.apply_mean_us", Mean(seq_ns) / 1e3, "us", seq_ns.size());
  out->Layer("core.load_ms", Median(load_ns) / 1e6, "ms", load_ns.size());
  out->Layer("core.rebuild_ms", Median(rebuild_ns) / 1e6, "ms",
             rebuild_ns.size());
  out->Layer("core.tuples_out_per_delta",
             tuples_out / static_cast<double>(deltas), "count");
  out->Layer("core.top_node_share", top_share / rounds, "fraction");
  out->Layer("core.shard_imbalance_mean",
             par_tally.HistMean("viewtree.shard_imbalance_x100") / 100.0,
             "ratio", par_tally.HistCount("viewtree.shard_imbalance_x100"));
  ReportPoolLayers(par_tally, out);
  out->Layer("parallel.speedup", rate_nproc / rate, "ratio");
  out->Layer("parallel.deltas_per_s_nproc", rate_nproc, "deltas/s",
             round_rate.size());
  out->Layer("data.state_mb", state_bytes / rounds / (1 << 20), "MiB");
  ReportSharedLayers(tally, batches, static_cast<double>(deltas),
                     static_cast<double>(seq_ns.size() + read_ns.size()),
                     /*pager=*/true, out);

  out->Info("threads", static_cast<double>(nproc));
  out->Info("batch_deltas", static_cast<double>(kBatch));
  out->Info("rounds", rounds);
  out->Info("timed_batches_per_round", kTimedBatches);
  out->Info("base_inventory", static_cast<double>(kBaseInventory));
  out->Info("state_mib_end_of_round", state_bytes / rounds / (1 << 20));
  out->Info("rows_per_read", read_ns.empty()
                                 ? 0
                                 : static_cast<double>(read_rows) /
                                       static_cast<double>(read_ns.size()));
  out->InfoStr("backend", "heap");
  if (trace != nullptr) {
    for (const auto& [layer, ns] : LayerSelfNs({&log})) {
      out->Layer("self_ms." + layer, ns / 1e6, "ms");
    }
    out->Layer("trace.spans",
               static_cast<double>(WriteSpans(
                   opts.workdir + "/spans-bulk-fanout.json", {&log})),
               "count");
  }
}

}  // namespace perfbench
