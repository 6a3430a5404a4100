// Tests for the observability layer (src/incr/obs/): striped metric
// correctness under concurrency, histogram quantiles against the exact
// Percentile, the registry/snapshot plumbing, allocation-freedom of the
// recording hot path (metrics and recorder spans), and the instrumentation
// hooks in the view tree and the engine facade. Suite names start with
// "Obs" so the TSan CI job picks them up via its -R filter.
// The counting operator-new replacement below is malloc/free based; GCC's
// -Wmismatched-new-delete cannot see through the replacement and flags
// every new/delete pair in the TU, so silence it here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "incr/core/view_tree.h"
#include "incr/engines/strategies.h"
#include "incr/obs/metrics.h"
#include "incr/obs/recorder.h"
#include "incr/ring/int_ring.h"
#include "incr/util/stats.h"
#include "incr/util/thread_pool.h"
#include "incr/version.h"

namespace incr {
namespace {

// ---------------------------------------------------------------------
// Global allocation counter: lets ObsDisabledTest assert that recording
// never allocates. Counts every operator-new in the test binary; tests
// only compare deltas across a controlled region.
std::atomic<uint64_t> g_allocs{0};

}  // namespace
}  // namespace incr

void* operator new(std::size_t n) {
  incr::g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  incr::g_allocs.fetch_add(1, std::memory_order_relaxed);
  size_t a = static_cast<size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// The nothrow variants must be replaced too: libstdc++'s temporary
// buffers (stable_sort) allocate with nothrow new but release through
// sized operator delete, so a partial replacement set pairs the default
// allocator with free() — an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  incr::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  incr::g_allocs.fetch_add(1, std::memory_order_relaxed);
  size_t a = static_cast<size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t& t) noexcept {
  return ::operator new(n, al, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace incr {
namespace {

enum : Var { A = 0, B = 1, C = 2 };

// Restores the runtime toggle on scope exit so tests cannot leak state.
struct EnabledGuard {
  bool was = obs::Enabled();
  ~EnabledGuard() { obs::SetEnabled(was); }
};

TEST(ObsCounterTest, ConcurrentIncrementsMergeExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&c] {
      for (uint64_t j = 0; j < kPerThread; ++j) c.Inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsCounterTest, ThreadSlotIsStableAndBounded) {
  size_t here = obs::ThreadSlot();
  EXPECT_LT(here, obs::kStripes);
  EXPECT_EQ(here, obs::ThreadSlot());
  size_t other = here;
  std::thread([&other] { other = obs::ThreadSlot(); }).join();
  EXPECT_LT(other, obs::kStripes);
}

TEST(ObsHistogramTest, ConcurrentRecordsMergeExactly) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&h] {
      for (uint64_t j = 0; j < kPerThread; ++j) h.Record(j % 1000 + 1);
    });
  }
  for (auto& t : ts) t.join();
  obs::HistogramStats s = h.Stats();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t per_thread_sum = 0;
  for (uint64_t j = 0; j < kPerThread; ++j) per_thread_sum += j % 1000 + 1;
  EXPECT_EQ(s.sum, kThreads * per_thread_sum);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
}

TEST(ObsHistogramTest, EmptyAndConstantDistributions) {
  obs::Histogram h;
  obs::HistogramStats empty = h.Stats();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.Quantile(50), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);

  for (int i = 0; i < 100; ++i) h.Record(7);
  obs::HistogramStats s = h.Stats();
  // All mass in one bucket with min == max == 7: every quantile clamps
  // to the exact value.
  EXPECT_EQ(s.Quantile(0), 7.0);
  EXPECT_EQ(s.Quantile(50), 7.0);
  EXPECT_EQ(s.Quantile(100), 7.0);
  EXPECT_EQ(s.Mean(), 7.0);

  h.Reset();
  EXPECT_EQ(h.Stats().count, 0u);
}

TEST(ObsHistogramTest, QuantileTracksExactPercentileWithinABucket) {
  // Log bucketing quantizes values to a factor of sqrt(2) around the
  // geometric bucket midpoint, so the histogram quantile must stay within
  // [exact/sqrt2, exact*sqrt2] of the exact nearest-rank percentile.
  obs::Histogram h;
  std::vector<double> exact;
  uint64_t v = 1;
  for (int i = 0; i < 4000; ++i) {
    v = v * 1103515245 + 12345;
    uint64_t sample = v % 1000000 + 1;
    h.Record(sample);
    exact.push_back(static_cast<double>(sample));
  }
  obs::HistogramStats s = h.Stats();
  const double kSqrt2 = 1.41421356237;
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    double want = Percentile(exact, p);
    double got = s.Quantile(p);
    EXPECT_GE(got, want / kSqrt2) << "p=" << p;
    EXPECT_LE(got, want * kSqrt2) << "p=" << p;
  }
}

TEST(ObsRegistryTest, HandlesAreStableAndSnapshotSeesValues) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(c, reg.GetCounter("test.registry.counter"));
  obs::Gauge* g = reg.GetGauge("test.registry.gauge");
  obs::Histogram* h = reg.GetHistogram("test.registry.hist");
  c->Add(5);
  g->Set(-3);
  h->Record(42);

  obs::StatsSnapshot snap = reg.Snapshot();
  bool saw_c = false, saw_g = false, saw_h = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.registry.counter") {
      saw_c = true;
      EXPECT_GE(value, 5u);
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.registry.gauge") {
      saw_g = true;
      EXPECT_EQ(value, -3);
    }
  }
  for (const auto& [name, stats] : snap.histograms) {
    if (name == "test.registry.hist") {
      saw_h = true;
      EXPECT_GE(stats.count, 1u);
    }
  }
  EXPECT_TRUE(saw_c);
  EXPECT_TRUE(saw_g);
  EXPECT_TRUE(saw_h);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"build\""), std::string::npos);
  EXPECT_NE(json.find("\"test.registry.counter\""), std::string::npos);
  std::string text = snap.ToText();
  EXPECT_NE(text.find("test.registry.gauge"), std::string::npos);
}

TEST(ObsRegistryTest, ResetZeroesEverythingButKeepsRegistration) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.reset.counter");
  obs::Gauge* g = reg.GetGauge("test.reset.gauge");
  obs::Histogram* h = reg.GetHistogram("test.reset.hist");
  c->Add(9);
  g->Set(16);
  h->Record(5);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Stats().count, 0u);
  EXPECT_EQ(h->Stats().sum, 0u);
  // Gauges are levels their owners set; Reset leaves them alone.
  EXPECT_EQ(g->Value(), 16);
  EXPECT_EQ(c, reg.GetCounter("test.reset.counter"));
  EXPECT_EQ(g, reg.GetGauge("test.reset.gauge"));
}

TEST(ObsRegistryTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::JsonEscape("line\nbreak"), "line\\nbreak");
}

TEST(ObsDisabledTest, RecordingHotPathDoesNotAllocate) {
  EnabledGuard guard;
  auto& reg = obs::MetricsRegistry::Global();
  // Registration and span interning (allowed to allocate) happen before
  // the measured region, as at every library call site.
  obs::Counter* c = reg.GetCounter("test.noalloc.counter");
  obs::Histogram* h = reg.GetHistogram("test.noalloc.hist");
  const obs::SpanId span = obs::InternSpan("test.noalloc.span", "i");
  // The thread's first recorded event acquires its ring (one allocation
  // per thread); take it up front like any real hot loop would.
  obs::SetEnabled(true);
  obs::RecordEvent(obs::EventKind::kEpochPublish);
  obs::SetEnabled(false);

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  // Off and on: recording is the same allocation-free path either way
  // (striped relaxed atomics and ring stores only). Spans are recorded
  // the same way whether or not INCR_TRACE will export them at exit.
  for (bool on : {false, true}) {
    obs::SetEnabled(on && obs::kObsCompiledIn);
    for (int i = 0; i < 1000; ++i) {
      // The call-site pattern used across the library: gate, then record.
      if (obs::Enabled()) {
        c->Inc();
        h->Record(static_cast<uint64_t>(i));
      }
      const uint64_t t0 = static_cast<uint64_t>(i) * 10;
      obs::SpanBegin(span, t0, static_cast<uint64_t>(i));
      obs::SpanEnd(span, t0, 5, static_cast<uint64_t>(i));
    }
  }
  obs::SetEnabled(false);
  uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST(ObsDisabledTest, RuntimeToggleFlipsEnabled) {
  if (!obs::kObsCompiledIn) {
    EXPECT_FALSE(obs::Enabled());
    GTEST_SKIP() << "observability compiled out";
  }
  EnabledGuard guard;
  obs::SetEnabled(false);
  EXPECT_FALSE(obs::Enabled());
  obs::SetEnabled(true);
  EXPECT_TRUE(obs::Enabled());
}

TEST(ObsViewTreeTest, NodeStatsCountBatchWork) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  obs::SetEnabled(true);
  Query q("Q", Schema{A, B, C},
          {Atom{"R", Schema{A, B}}, Atom{"S", Schema{A, C}}});
  auto tree = ViewTree<IntRing>::Make(q);
  ASSERT_TRUE(tree.ok());
  using Entry = ViewTree<IntRing>::BatchEntry;
  std::vector<Entry> batch;
  for (int64_t i = 0; i < 32; ++i) {
    batch.push_back(Entry{static_cast<size_t>(i % 2), Tuple{i % 4, i}, 1});
  }
  tree->ApplyBatch(std::span<const Entry>(batch));

  const size_t num_nodes = tree->plan().nodes().size();
  uint64_t total_in = 0, calls = 0;
  for (size_t n = 0; n < num_nodes; ++n) {
    total_in += tree->node_stats(static_cast<int>(n)).tuples_in;
    calls += tree->node_stats(static_cast<int>(n)).batch_calls;
  }
  EXPECT_GE(total_in, batch.size());  // every delta entered some node
  EXPECT_GE(calls, 1u);

  std::string json = tree->NodeStatsJson();
  EXPECT_NE(json.find("\"apply_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"tuples_in\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');

  tree->ResetNodeStats();
  for (size_t n = 0; n < num_nodes; ++n) {
    EXPECT_EQ(tree->node_stats(static_cast<int>(n)).tuples_in, 0u);
  }
}

TEST(ObsEngineTest, FacadeRecordsPerEngineHistograms) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  obs::SetEnabled(true);
  Query q("Q", Schema{A, B, C},
          {Atom{"R", Schema{A, B}}, Atom{"S", Schema{A, C}}});
  auto tree = ViewTree<IntRing>::Make(q);
  ASSERT_TRUE(tree.ok());
  EagerFactStrategy<IntRing> engine(*std::move(tree));

  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram* update_ns =
      reg.GetHistogram("engine.eager-fact.update_ns");
  obs::Histogram* enum_ns = reg.GetHistogram("engine.eager-fact.enum_ns");
  obs::Histogram* delay_ns =
      reg.GetHistogram("engine.eager-fact.enum_delay_ns");
  uint64_t updates0 = update_ns->Stats().count;
  uint64_t enums0 = enum_ns->Stats().count;
  uint64_t delays0 = delay_ns->Stats().count;

  engine.Update("R", Tuple{1, 2}, 1);
  engine.Update("S", Tuple{1, 3}, 1);
  std::vector<Delta<IntRing>> batch{{"R", Tuple{4, 5}, 1},
                                    {"S", Tuple{4, 6}, 1}};
  engine.ApplyBatch(batch);
  size_t out = engine.Enumerate(nullptr);
  EXPECT_EQ(out, 2u);

  EXPECT_EQ(update_ns->Stats().count, updates0 + 2);
  EXPECT_EQ(enum_ns->Stats().count, enums0 + 1);
  // Enumeration produced tuples, so a per-tuple delay sample landed.
  EXPECT_EQ(delay_ns->Stats().count, delays0 + 1);
}

TEST(ObsBuildInfoTest, BuildJsonNamesTheToolchain) {
  std::string info = BuildInfoJson();
  EXPECT_NE(info.find("\"commit\""), std::string::npos);
  EXPECT_NE(info.find("\"compiler\""), std::string::npos);
  EXPECT_NE(info.find("\"sanitizer\""), std::string::npos);
  EXPECT_NE(info.find("\"threads\""), std::string::npos);
}

TEST(ObsPoolTest, StealFailCounterCountsFailedProbes) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  obs::SetEnabled(true);
  auto* steal_fail =
      obs::MetricsRegistry::Global().GetCounter("pool.steal_fail");
  const uint64_t before = steal_fail->Value();
  ThreadPool pool(2);
  std::atomic<uint64_t> covered{0};
  // 64 one-entry morsels over two home ranges: a thread only leaves the
  // job after a failed claim on every foreign range, so the caller alone
  // guarantees nslots-1 = 1 failed probe in the counter (the worker adds
  // its own only if it wakes before the caller drains both ranges).
  pool.ParallelMorsels(64, 1, [&](size_t begin, size_t end) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 64u);
  EXPECT_GE(steal_fail->Value(), before + 1);
}

TEST(ObsRecorderAllocTest, DisabledRecordPathIsAllocationFree) {
  EnabledGuard guard;
  obs::SetEnabled(false);
  const uint64_t events_before = obs::RecorderEventCount();
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::RecordEvent(obs::EventKind::kEpochPublish, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), allocs_before);
  EXPECT_EQ(obs::RecorderEventCount(), events_before);

  if (obs::kObsCompiledIn) {
    // The enabled path allocates at most once per thread (ring
    // acquisition); after the first event the steady state is one relaxed
    // fetch_add plus four relaxed stores, no allocation.
    obs::SetEnabled(true);
    obs::RecordEvent(obs::EventKind::kEpochPublish, 0);
    const uint64_t warm = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
      obs::RecordEvent(obs::EventKind::kWalFlush, static_cast<uint64_t>(i),
                       7);
    }
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), warm);
    EXPECT_GE(obs::RecorderEventCount(), events_before + 1001);
  }
}

TEST(ObsStatsTest, NearestRankMatchesPercentileContract) {
  // The histogram quantile and util/stats Percentile share NearestRank;
  // spot-check the shared rank logic on a known distribution.
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_EQ(NearestRank(5, 0.0), 0u);
  EXPECT_EQ(NearestRank(5, 100.0), 4u);
  EXPECT_EQ(Percentile(v, 50), 30.0);
  EXPECT_EQ(Percentile(v, 10), 10.0);
  EXPECT_EQ(Percentile(v, 90), 50.0);
}

}  // namespace
}  // namespace incr
