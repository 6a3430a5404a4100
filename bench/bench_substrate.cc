// E12: substrate microbenchmarks (DESIGN.md). Verifies the data-structure
// contract of paper §2: amortized O(1) relation upsert/lookup/delete,
// constant-delay scans, grouped-index operations.
#include <benchmark/benchmark.h>

#include <vector>

#include "incr/data/relation.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

void BM_RelationInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    Relation<IntRing> r(Schema{0, 1});
    r.Reserve(static_cast<size_t>(n));
    Rng rng(42);
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      r.Apply(Tuple{rng.UniformInt(0, n), rng.UniformInt(0, n)}, 1);
    }
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RelationInsert)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_RelationLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation<IntRing> r(Schema{0, 1});
  Rng rng(42);
  for (int64_t i = 0; i < n; ++i) {
    r.Apply(Tuple{rng.UniformInt(0, n), rng.UniformInt(0, n)}, 1);
  }
  Rng probe(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        r.Payload(Tuple{probe.UniformInt(0, n), probe.UniformInt(0, n)}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelationLookup)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_RelationScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation<IntRing> r(Schema{0, 1});
  Rng rng(42);
  for (int64_t i = 0; i < n; ++i) {
    r.Apply(Tuple{rng.UniformInt(0, n), rng.UniformInt(0, n)}, 1);
  }
  for (auto _ : state) {
    int64_t acc = 0;
    for (const auto& e : r) acc += e.value;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(r.size()));
}
BENCHMARK(BM_RelationScan)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_RelationInsertDeleteChurn(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation<IntRing> r(Schema{0, 1});
  Rng rng(42);
  for (int64_t i = 0; i < n; ++i) r.Apply(Tuple{i, i}, 1);
  int64_t k = 0;
  for (auto _ : state) {
    // Steady-state churn: one delete, one insert.
    r.Apply(Tuple{k % n, k % n}, -1);
    r.Apply(Tuple{k % n, k % n}, 1);
    ++k;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RelationInsertDeleteChurn)->Arg(1 << 12)->Arg(1 << 20);

// Grouped-index cost per write: a 2-column relation of n entries in 100
// groups churns (insert a fresh tuple, erase the oldest) with one index on
// column 0 (arg 1) or none (arg 0). The index's own cost per write is the
// difference of the two arms.
void BM_GroupedIndexInsertErase(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation<IntRing> r(Schema{0, 1});
  if (state.range(1) != 0) r.AddIndex(Schema{0});
  for (int64_t i = 0; i < n; ++i) r.Apply(Tuple{i % 100, i}, 1);
  int64_t k = n;
  for (auto _ : state) {
    r.Apply(Tuple{k % 100, k}, 1);
    r.Apply(Tuple{(k - n) % 100, k - n}, -1);
    benchmark::ClobberMemory();
    ++k;
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["bytes_per_entry"] = benchmark::Counter(
      static_cast<double>(r.MemoryBytes()) / static_cast<double>(n));
}
BENCHMARK(BM_GroupedIndexInsertErase)
    ->ArgNames({"n", "indexed"})
    ->ArgsProduct({{1 << 12, 1 << 18}, {0, 1}});

// Constant-delay group scan: one group of n/64 members, reading each
// member's non-key column from the group's own records, as the view-tree
// delta programs and enumerators do.
void BM_GroupedIndexGroupScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation<IntRing> r(Schema{0, 1});
  r.AddIndex(Schema{0});
  for (int64_t i = 0; i < n; ++i) r.Apply(Tuple{i % 64, i}, 1);
  std::vector<uint32_t> records;
  for (auto _ : state) {
    int64_t acc = 0;
    const GroupView group = r.index(0).Group(Tuple{13}, &records);
    for (size_t i = 0; i < group.size(); ++i) acc += group.Rest(i, 0);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * (n / 64));
}
BENCHMARK(BM_GroupedIndexGroupScan)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace
}  // namespace incr

BENCHMARK_MAIN();
