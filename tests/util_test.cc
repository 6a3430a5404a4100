#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "incr/util/hash.h"
#include "incr/util/rng.h"
#include "incr/util/small_vector.h"
#include "incr/util/stats.h"
#include "incr/util/status.h"
#include "incr/util/thread_pool.h"

namespace incr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad schema");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad schema");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad schema");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(SmallVectorTest, InlineThenHeap) {
  SmallVector<int64_t, 2> v;
  EXPECT_TRUE(v.empty());
  for (int64_t i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVectorTest, CopyAndMove) {
  SmallVector<int64_t, 2> v{1, 2, 3, 4, 5};
  SmallVector<int64_t, 2> copy = v;
  EXPECT_EQ(copy, v);
  SmallVector<int64_t, 2> moved = std::move(copy);
  EXPECT_EQ(moved, v);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

  // Inline-stored move.
  SmallVector<int64_t, 4> small{7, 8};
  SmallVector<int64_t, 4> small2 = std::move(small);
  EXPECT_EQ(small2.size(), 2u);
  EXPECT_EQ(small2[0], 7);
}

TEST(SmallVectorTest, SelfAssignmentIsNoop) {
  SmallVector<int64_t, 2> v{1, 2, 3};
  auto& alias = v;
  v = alias;
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3);
}

TEST(SmallVectorTest, ComparisonOperators) {
  SmallVector<int64_t, 2> a{1, 2};
  SmallVector<int64_t, 2> b{1, 3};
  SmallVector<int64_t, 2> c{1, 2};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a == c);
  EXPECT_TRUE(a != b);
}

TEST(SmallVectorTest, ResizeAndPopBack) {
  SmallVector<int64_t, 2> v;
  v.resize(10, 9);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v[9], 9);
  v.pop_back();
  EXPECT_EQ(v.size(), 9u);
}

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t base = Mix64(12345);
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t flipped = Mix64(12345ULL ^ (1ULL << bit));
    total += __builtin_popcountll(base ^ flipped);
  }
  double avg = total / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, SpanHashOrderSensitive) {
  uint64_t a[] = {1, 2};
  uint64_t b[] = {2, 1};
  EXPECT_NE(HashSpan64(a, 2), HashSpan64(b, 2));
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformCoversDomain) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ZipfTest, SkewConcentratesMass) {
  Rng rng(5);
  ZipfSampler zipf(1000, 1.2);
  int head = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // With s=1.2 the top-10 of 1000 values carry far more than 10/1000 of the
  // mass; expect > 40%.
  EXPECT_GT(head, kSamples * 40 / 100);
}

TEST(ZipfTest, ZeroSkewIsUniformish) {
  Rng rng(5);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(StatsTest, MeanPercentileMax) {
  std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Max(xs), 5.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PercentileEdgeCases) {
  // Empty input: 0 regardless of p.
  EXPECT_DOUBLE_EQ(Percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 100), 0.0);
  // Single element: returned for every p.
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 100), 7.0);
  // p=0 is the minimum, p=100 the maximum.
  std::vector<double> xs = {9, 2, 7, 4};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 9.0);
  // Nearest-rank interior points.
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 75), 7.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 99), 9.0);
}

TEST(StatsTest, NearestRank) {
  EXPECT_EQ(NearestRank(1, 0), 0u);
  EXPECT_EQ(NearestRank(1, 100), 0u);
  EXPECT_EQ(NearestRank(4, 0), 0u);
  EXPECT_EQ(NearestRank(4, 25), 0u);
  EXPECT_EQ(NearestRank(4, 50), 1u);
  EXPECT_EQ(NearestRank(4, 75), 2u);
  EXPECT_EQ(NearestRank(4, 100), 3u);
  EXPECT_EQ(NearestRank(100, 50), 49u);
  EXPECT_EQ(NearestRank(100, 99), 98u);
}

TEST(StatsTest, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double n = 1000; n <= 1e6; n *= 10) {
    x.push_back(n);
    y.push_back(3.0 * std::pow(n, 1.5));
  }
  EXPECT_NEAR(LogLogSlope(x, y), 1.5, 1e-9);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [](size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The job drained fully despite the failure: the pool is reusable and
  // a subsequent job runs every index.
  std::atomic<size_t> ran{0};
  pool.ParallelFor(32, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32u);
}

TEST(ThreadPoolTest, ParallelForPreservesExceptionMessage) {
  ThreadPool pool(3);
  try {
    pool.ParallelFor(16, [](size_t i) {
      if (i % 2 == 0) throw std::runtime_error("worker failed");
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker failed");
  }
}

TEST(ThreadPoolTest, InlinePathPropagatesException) {
  // threads <= 1 runs tasks inline on the caller; the exception must
  // surface the same way as on the worker path.
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(8,
                                [](size_t i) {
                                  if (i == 3) throw std::logic_error("inline");
                                }),
               std::logic_error);
  std::atomic<size_t> ran{0};
  pool.ParallelFor(8, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8u);
}

TEST(ThreadPoolTest, DefaultThreadsIgnoresInvalidThreadsEnv) {
  // Only DefaultThreads() is called: no pool is built at these values.
  const char* env = std::getenv("INCR_THREADS");
  const std::string saved = env == nullptr ? "" : env;
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t fallback = hw == 0 ? 1 : hw;
  unsetenv("INCR_THREADS");
  EXPECT_EQ(ThreadPool::DefaultThreads(), fallback);
  for (const char* bad :
       {"100000", "1025", "0", "-3", "abc", "8x", "0x10", ""}) {
    setenv("INCR_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::DefaultThreads(), fallback) << "'" << bad << "'";
  }
  setenv("INCR_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3u);
  setenv("INCR_THREADS", std::to_string(ThreadPool::kMaxThreads).c_str(), 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), ThreadPool::kMaxThreads);
  if (env == nullptr) {
    unsetenv("INCR_THREADS");
  } else {
    setenv("INCR_THREADS", saved.c_str(), 1);
  }
}

TEST(StatsTest, LogLogSlopeSkipsNonPositive) {
  std::vector<double> x = {0, 10, 100, 1000};
  std::vector<double> y = {5, 1, 10, 100};
  EXPECT_NEAR(LogLogSlope(x, y), 1.0, 1e-9);
}

}  // namespace
}  // namespace incr
