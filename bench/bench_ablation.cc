// Ablations for the design choices DESIGN.md calls out.
//
// A1: DenseMap (our open-addressing map with a dense entry array) vs
//     std::unordered_map as the relation substrate. The paper's §2 contract
//     needs constant-delay scans; node-based maps lose exactly there, and
//     on upsert/churn constants.
// A2: the epsilon parameter of the IVMe triangle maintainer: update cost
//     across eps on a skewed stream, showing the worst-case-optimal choice
//     eps = 1/2 is also the practical sweet spot between the lazy (eps=0)
//     and eager (eps=1) extremes.
#include <cstdio>
#include <unordered_map>

#include "bench_util.h"
#include "incr/data/dense_map.h"
#include "incr/data/tuple.h"
#include "incr/ivme/triangle.h"
#include "incr/util/rng.h"
#include "incr/workload/graph.h"

using namespace incr;
using namespace incr::bench;

namespace {

volatile int64_t benchmark_dummy_ = 0;

struct MapNumbers {
  double insert_ns;
  double lookup_ns;
  double scan_ns;
  double churn_ns;
};

MapNumbers MeasureDenseMap(int64_t n) {
  MapNumbers out{};
  Rng rng(1);
  DenseMap<Tuple, int64_t, TupleHash, TupleEq> m;
  Stopwatch ins;
  for (int64_t i = 0; i < n; ++i) {
    const size_t slot =
        m.FindOrInsert(Tuple{rng.UniformInt(0, n), rng.UniformInt(0, n)}, 0)
            .slot;
    ++m.ValueAt(m.EntryOf(slot));
  }
  out.insert_ns = NsPerOp(ins.ElapsedSeconds(), n);
  Rng probe(2);
  Stopwatch lk;
  int64_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    const size_t slot =
        m.FindSlot(Tuple{probe.UniformInt(0, n), probe.UniformInt(0, n)});
    acc += slot == kNoSlot ? 0 : m.ValueAt(m.EntryOf(slot));
  }
  out.lookup_ns = NsPerOp(lk.ElapsedSeconds(), n);
  Stopwatch sc;
  for (const auto& e : m) acc += e.value;
  out.scan_ns = NsPerOp(sc.ElapsedSeconds(), static_cast<int64_t>(m.size()));
  Stopwatch ch;
  const int64_t kChurn = 200000;
  for (int64_t i = 0; i < kChurn; ++i) {
    Tuple t{i % n, i % n};
    ++m.ValueAt(m.EntryOf(m.FindOrInsert(t, 0).slot));
    m.Erase(t);
  }
  out.churn_ns = NsPerOp(ch.ElapsedSeconds(), 2 * kChurn);
  benchmark_dummy_ = benchmark_dummy_ + acc;
  return out;
}

MapNumbers MeasureUnorderedMap(int64_t n) {
  MapNumbers out{};
  Rng rng(1);
  struct H {
    size_t operator()(const Tuple& t) const { return TupleHash{}(t); }
  };
  std::unordered_map<Tuple, int64_t, H, TupleEq> m;
  Stopwatch ins;
  for (int64_t i = 0; i < n; ++i) {
    m[Tuple{rng.UniformInt(0, n), rng.UniformInt(0, n)}] += 1;
  }
  out.insert_ns = NsPerOp(ins.ElapsedSeconds(), n);
  Rng probe(2);
  Stopwatch lk;
  int64_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    auto it = m.find(Tuple{probe.UniformInt(0, n), probe.UniformInt(0, n)});
    acc += it == m.end() ? 0 : it->second;
  }
  out.lookup_ns = NsPerOp(lk.ElapsedSeconds(), n);
  Stopwatch sc;
  for (const auto& [k, v] : m) acc += v;
  out.scan_ns = NsPerOp(sc.ElapsedSeconds(), static_cast<int64_t>(m.size()));
  Stopwatch ch;
  const int64_t kChurn = 200000;
  for (int64_t i = 0; i < kChurn; ++i) {
    Tuple t{i % n, i % n};
    m[t] += 1;
    m.erase(t);
  }
  out.churn_ns = NsPerOp(ch.ElapsedSeconds(), 2 * kChurn);
  benchmark_dummy_ = benchmark_dummy_ + acc;
  return out;
}

}  // namespace

int main() {
  Section("A1: DenseMap vs std::unordered_map (Tuple keys, |keys|=2^20)");
  const int64_t n = 1 << 20;
  MapNumbers dense = MeasureDenseMap(n);
  MapNumbers um = MeasureUnorderedMap(n);
  Row({"", "insert(ns)", "lookup(ns)", "scan(ns/e)", "churn(ns)"});
  Row({"DenseMap", Fmt(dense.insert_ns), Fmt(dense.lookup_ns),
       Fmt(dense.scan_ns), Fmt(dense.churn_ns)});
  Row({"unordered_map", Fmt(um.insert_ns), Fmt(um.lookup_ns),
       Fmt(um.scan_ns), Fmt(um.churn_ns)});

  Section("A2: IVMe epsilon ablation (skewed insert/delete stream, "
          "N ~ 60000)");
  Row({"eps", "update(ns)", "migrations", "rebalances"});
  for (double eps : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    IvmEpsTriangleCounter c(eps);
    GraphStream load(4000, 1.0, 0, 3);
    for (int i = 0; i < 60000; ++i) {
      auto e = load.Next();
      c.Update(static_cast<TriangleRel>(i % 3), e.src, e.dst, 1);
    }
    GraphStream stream(4000, 1.0, 60000, 4);
    const int64_t kOps = 4000;
    Stopwatch sw;
    for (int64_t i = 0; i < kOps; ++i) {
      auto e = stream.Next();
      c.Update(static_cast<TriangleRel>(i % 3), e.src, e.dst, e.delta);
    }
    Row({Fmt(eps, "%.2f"), Fmt(NsPerOp(sw.ElapsedSeconds(), kOps)),
         FmtInt(c.num_migrations()), FmtInt(c.num_major_rebalances())});
  }
  std::printf("\n(eps=0 keeps everything effectively heavy/lazy, eps=1 "
              "everything light/eager; 1/2 balances both delta paths)\n");
  return 0;
}
