// The parallel batch-maintenance layer: ThreadPool, ShardedRelation, and
// the headline invariant — parallel ViewTree::ApplyBatch
// is ring-identical to the sequential path for every ring and every thread
// count (results must not depend on threads; shard partition is fixed).
#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/core/view_tree.h"
#include "incr/data/delta.h"
#include "incr/data/sharded_relation.h"
#include "incr/engines/engine.h"
#include "incr/ring/covar_ring.h"
#include "incr/ring/int_ring.h"
#include "incr/ring/product_ring.h"
#include "incr/util/rng.h"
#include "incr/util/thread_pool.h"

namespace incr {
namespace {

enum : Var { A = 0, B = 1, C = 2 };

// Q-hierarchical: both atom sources bind every node key, so each source
// delta lands in the W shard of its own key.
Query TheQuery() {
  return Query("Q", Schema{A, B, C},
               {Atom{"R", Schema{A, B}}, Atom{"S", Schema{A, C}}});
}

// Non-q-hierarchical fan-out under a path order: the S(B) source does not
// bind node B's key (A), so one source delta fans out over many W shards.
Query FanoutQuery() {
  return Query("Q", Schema{A}, {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B}}});
}

// Cyclic triangle under a path order: multi-atom nodes where every atom
// misses part of the node key — the morsel grid under heavy churn.
Query TriangleQuery() {
  return Query("Q", Schema{},
               {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B, C}},
                Atom{"T", Schema{C, A}}});
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  const size_t n = 10000;
  std::vector<std::atomic<int>> counts(n);
  pool.ParallelFor(n, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int job = 0; job < 100; ++job) {
    pool.ParallelFor(17, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 1700u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);  // spawns no worker threads
  EXPECT_EQ(pool.num_threads(), 1u);
  size_t sum = 0;  // safe unsynchronized: everything runs on this thread
  pool.ParallelFor(100, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPoolTest, FewerTasksThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(3);
  pool.ParallelFor(3, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < 3; ++i) ASSERT_EQ(counts[i].load(), 1);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "n == 0 must run nothing"; });
}

// ---------------------------------------------------------------------------
// ThreadPool::ParallelMorsels — the work-stealing morsel scheduler. Suite
// name carries "Morsel" so the TSan CI pass picks it up.

TEST(ThreadPoolMorselTest, CoversEveryIndexOnTheFixedGrid) {
  ThreadPool pool(4);
  const size_t n = 10000;
  const size_t morsel = 7;
  std::vector<std::atomic<int>> counts(n);
  pool.ParallelMorsels(n, morsel, [&](size_t begin, size_t end) {
    // Cells always sit on the fixed grid, never merged or split.
    EXPECT_EQ(begin % morsel, 0u);
    EXPECT_EQ(end, std::min(begin + morsel, n));
    for (size_t i = begin; i < end; ++i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPoolMorselTest, GridIsIndependentOfThreadCount) {
  auto run = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> cells;
    pool.ParallelMorsels(103, 10, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      cells.emplace(begin, end);
    });
    return cells;
  };
  const auto one = run(1);
  EXPECT_EQ(one.size(), 11u);  // ceil(103 / 10)
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(4));
  EXPECT_EQ(one, run(8));
}

TEST(ThreadPoolMorselTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  size_t sum = 0;  // safe unsynchronized: everything runs on this thread
  pool.ParallelMorsels(100, 9, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPoolMorselTest, SingleMorselRunsInlineEvenWithWorkers) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelMorsels(5, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  // morsel == 0 clamps to one morsel spanning the whole input.
  calls = 0;
  pool.ParallelMorsels(17, 0, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 17u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  pool.ParallelMorsels(0, 8,
                       [](size_t, size_t) { FAIL() << "n == 0 runs nothing"; });
}

TEST(ThreadPoolMorselTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelMorsels(99, 3,
                                    [](size_t begin, size_t) {
                                      if (begin == 33) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);
  std::atomic<size_t> total{0};
  pool.ParallelMorsels(50, 5, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 50u);
}

TEST(ThreadPoolMorselTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int job = 0; job < 100; ++job) {
    pool.ParallelMorsels(17, 4, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 1700u);
}

// ---------------------------------------------------------------------------
// ShardedRelation

TEST(ShardedRelationTest, MatchesPlainRelationAndSurvivesReshard) {
  ShardedRelation<IntRing> sharded(Schema{A, B}, /*key_prefix=*/1,
                                   /*num_shards=*/8);
  Relation<IntRing> plain(Schema{A, B});
  sharded.AddIndex(Schema{A});
  plain.AddIndex(Schema{A});
  Rng rng(22);
  for (int i = 0; i < 800; ++i) {
    Tuple t{rng.UniformInt(0, 30), rng.UniformInt(0, 6)};
    int64_t d = rng.Chance(0.3) ? -1 : 1;
    sharded.Apply(t, d);
    plain.Apply(t, d);
  }
  auto check = [&] {
    ASSERT_EQ(sharded.size(), plain.size());
    size_t seen = 0;
    for (const auto& e : sharded) {
      ASSERT_EQ(plain.Payload(e.key), e.value);
      ASSERT_TRUE(sharded.Contains(e.key));
      ++seen;
    }
    ASSERT_EQ(seen, plain.size());
    std::vector<uint32_t> ids, expect_ids;
    for (Value a = 0; a <= 30; ++a) {
      const Tuple key{a};
      const auto group =
          sharded.shard(sharded.ShardOfKey(key)).index(0).Group(key, &ids);
      const auto expect = plain.index(0).Group(key, &expect_ids);
      ASSERT_EQ(group.size(), expect.size());
    }
  };
  check();
  sharded.Reshard(3);
  check();
  sharded.Reshard(1);
  check();
}

// ---------------------------------------------------------------------------
// Parallel ApplyBatch == sequential ApplyBatch, across rings/threads

// Every W and M view must hold ring-identical payloads.
template <RingType R>
void ExpectViewsIdentical(const ViewTree<R>& a, const ViewTree<R>& b) {
  for (size_t n = 0; n < a.plan().nodes().size(); ++n) {
    const auto& wa = a.NodeW(static_cast<int>(n));
    const auto& wb = b.NodeW(static_cast<int>(n));
    ASSERT_EQ(wa.size(), wb.size()) << "W of node " << n;
    for (const auto& e : wa) ASSERT_EQ(wb.Payload(e.key), e.value);
    const Relation<R>& ma = a.NodeM(static_cast<int>(n));
    const Relation<R>& mb = b.NodeM(static_cast<int>(n));
    ASSERT_EQ(ma.size(), mb.size()) << "M of node " << n;
    for (const auto& e : ma) ASSERT_EQ(mb.Payload(e.key), e.value);
  }
}

// Applies the same random batches to a sequential tree and to parallel
// trees at thread counts {1, 2, 7}, checking every view after every batch.
// Batch sizes start below the shard count (16) on purpose.
template <RingType R, typename DrawFn>
void CheckParallelVsSequential(const Query& q, const VariableOrder* vo,
                               DrawFn&& draw, uint64_t seed) {
  auto make = [&] {
    auto t = vo == nullptr ? ViewTree<R>::Make(q) : ViewTree<R>::Make(q, *vo);
    EXPECT_TRUE(t.ok());
    return *std::move(t);
  };
  for (size_t threads : {1u, 2u, 7u}) {
    ViewTree<R> sequential = make();
    ViewTree<R> parallel = make();
    parallel.SetThreads(threads);
    Rng rng(seed);
    for (size_t size : {3u, 7u, 40u, 200u}) {
      std::vector<typename ViewTree<R>::BatchEntry> batch;
      for (size_t i = 0; i < size; ++i) batch.push_back(draw(rng));
      sequential.ApplyBatch(
          std::span<const typename ViewTree<R>::BatchEntry>(batch));
      parallel.ApplyBatch(
          std::span<const typename ViewTree<R>::BatchEntry>(batch));
      ExpectViewsIdentical(parallel, sequential);
    }
  }
}

TEST(ParallelBatchTest, MatchesSequentialIntRing) {
  CheckParallelVsSequential<IntRing>(
      TheQuery(), nullptr,
      [](Rng& rng) {
        return ViewTree<IntRing>::BatchEntry{
            rng.Uniform(2), Tuple{rng.UniformInt(0, 5), rng.UniformInt(0, 5)},
            rng.Chance(0.4) ? -1 : 2};
      },
      31);
}

TEST(ParallelBatchTest, MatchesSequentialProductRing) {
  using PR = ProductRing<IntRing, IntRing>;
  CheckParallelVsSequential<PR>(
      TheQuery(), nullptr,
      [](Rng& rng) {
        int64_t m = rng.Chance(0.4) ? -1 : 1;
        return ViewTree<PR>::BatchEntry{
            rng.Uniform(2), Tuple{rng.UniformInt(0, 5), rng.UniformInt(0, 5)},
            {m, 2 * m}};
      },
      32);
}

TEST(ParallelBatchTest, MatchesSequentialCovarRing) {
  using CR = CovarRing<2>;
  CheckParallelVsSequential<CR>(
      TheQuery(), nullptr,
      [](Rng& rng) {
        CR::Value v = CR::Lift(rng.Uniform(2),
                               static_cast<double>(rng.UniformInt(1, 9)));
        return ViewTree<CR>::BatchEntry{
            rng.Uniform(2), Tuple{rng.UniformInt(0, 5), rng.UniformInt(0, 5)},
            rng.Chance(0.3) ? CR::Neg(v) : v};
      },
      33);
}

TEST(ParallelBatchTest, MatchesSequentialFanout) {
  // S(B) does not bind node B's key (A): each delta fans out over shards.
  Query q = FanoutQuery();
  auto vo = VariableOrder::FromPath(q, {A, B});
  ASSERT_TRUE(vo.ok());
  CheckParallelVsSequential<IntRing>(
      q, &*vo,
      [](Rng& rng) {
        if (rng.Chance(0.5)) {
          return ViewTree<IntRing>::BatchEntry{
              0, Tuple{rng.UniformInt(0, 20), rng.UniformInt(0, 3)}, 1};
        }
        return ViewTree<IntRing>::BatchEntry{
            1, Tuple{rng.UniformInt(0, 3)}, rng.Chance(0.4) ? -1 : 1};
      },
      34);
}

TEST(ParallelBatchTest, MatchesSequentialTriangle) {
  Query q = TriangleQuery();
  auto vo = VariableOrder::FromPath(q, {A, B, C});
  ASSERT_TRUE(vo.ok());
  CheckParallelVsSequential<IntRing>(
      q, &*vo,
      [](Rng& rng) {
        return ViewTree<IntRing>::BatchEntry{
            rng.Uniform(3), Tuple{rng.UniformInt(0, 4), rng.UniformInt(0, 4)},
            rng.Chance(0.4) ? -1 : 1};
      },
      35);
}

TEST(ParallelBatchTest, ResultsInvariantUnderThreadCount) {
  // Not just payload-equal to sequential: two parallel trees at different
  // thread counts share the same fixed shard partition, so even the
  // physical shard layouts coincide.
  auto make = [] {
    auto t = ViewTree<IntRing>::Make(TheQuery());
    EXPECT_TRUE(t.ok());
    return *std::move(t);
  };
  ViewTree<IntRing> two = make();
  ViewTree<IntRing> seven = make();
  two.SetThreads(2);
  seven.SetThreads(7);
  Rng rng(36);
  for (int round = 0; round < 10; ++round) {
    std::vector<ViewTree<IntRing>::BatchEntry> batch;
    for (int i = 0; i < 150; ++i) {
      batch.push_back({rng.Uniform(2),
                       Tuple{rng.UniformInt(0, 9), rng.UniformInt(0, 9)},
                       rng.Chance(0.4) ? -1 : 1});
    }
    two.ApplyBatch(std::span<const ViewTree<IntRing>::BatchEntry>(batch));
    seven.ApplyBatch(std::span<const ViewTree<IntRing>::BatchEntry>(batch));
    ExpectViewsIdentical(two, seven);
    for (size_t n = 0; n < two.plan().nodes().size(); ++n) {
      const auto& wa = two.NodeW(static_cast<int>(n));
      const auto& wb = seven.NodeW(static_cast<int>(n));
      ASSERT_EQ(wa.num_shards(), wb.num_shards());
      for (size_t s = 0; s < wa.num_shards(); ++s) {
        ASSERT_EQ(wa.shard(s).size(), wb.shard(s).size())
            << "node " << n << " shard " << s;
      }
    }
  }
}

TEST(ParallelBatchTest, SelfCancellingBatchIsNoOp) {
  auto make = [] {
    auto t = ViewTree<IntRing>::Make(TheQuery());
    EXPECT_TRUE(t.ok());
    t->SetThreads(7);
    Rng rng(37);
    for (int i = 0; i < 100; ++i) {
      t->UpdateAtom(rng.Uniform(2),
                    Tuple{rng.UniformInt(0, 5), rng.UniformInt(0, 5)}, 1);
    }
    return *std::move(t);
  };
  ViewTree<IntRing> tree = make();
  ViewTree<IntRing> untouched = make();
  Rng rng(38);
  std::vector<ViewTree<IntRing>::BatchEntry> batch;
  for (int i = 0; i < 50; ++i) {
    ViewTree<IntRing>::BatchEntry e{
        rng.Uniform(2), Tuple{rng.UniformInt(0, 5), rng.UniformInt(0, 5)},
        rng.UniformInt(1, 3)};
    ViewTree<IntRing>::BatchEntry neg = e;
    neg.delta = -neg.delta;
    batch.push_back(e);
    batch.push_back(neg);
  }
  tree.ApplyBatch(std::span<const ViewTree<IntRing>::BatchEntry>(batch));
  ExpectViewsIdentical(tree, untouched);
}

TEST(ParallelBatchTest, EngineNamedBatchMatchesSequential) {
  // The IvmEngine wiring: Configure(threads) + the parallel named-batch
  // merge.
  Query q = FanoutQuery();
  auto vo = VariableOrder::FromPath(q, {A, B});
  ASSERT_TRUE(vo.ok());
  auto make = [&] {
    auto t = ViewTree<IntRing>::Make(q, *vo);
    EXPECT_TRUE(t.ok());
    return ViewTreeEngine<IntRing>(*std::move(t));
  };
  ViewTreeEngine<IntRing> sequential = make();
  ViewTreeEngine<IntRing> parallel = make();
  EngineOptions four;
  four.threads = 4;
  parallel.Configure(four);
  Rng rng(39);
  for (int round = 0; round < 5; ++round) {
    std::vector<Delta<IntRing>> batch;
    for (int i = 0; i < 300; ++i) {
      if (rng.Chance(0.5)) {
        batch.push_back({"R",
                         Tuple{rng.UniformInt(0, 20), rng.UniformInt(0, 3)},
                         rng.Chance(0.4) ? -1 : 1});
      } else {
        batch.push_back(
            {"S", Tuple{rng.UniformInt(0, 3)}, rng.Chance(0.4) ? -1 : 1});
      }
    }
    sequential.ApplyBatch(std::span<const Delta<IntRing>>(batch));
    parallel.ApplyBatch(std::span<const Delta<IntRing>>(batch));
    ExpectViewsIdentical(parallel.tree(), sequential.tree());
  }
}

// ---------------------------------------------------------------------------
// Morsel-mode equivalence: the morsel size is pure scheduling. Results must
// be bit-identical to the sequential path at every point of the
// threads x morsel-size grid, for every ring. Suite name carries "Morsel"
// for the TSan CI pass.

// Applies the same random batches to a sequential tree and to parallel
// trees across threads {1, 2, 4, 8} x morsel sizes {one-entry, tiny,
// default, effectively-single-morsel}, checking every view after every
// batch. A 1-byte morsel clamps to one delta per cell (maximal grid and
// stealing); 1 MiB degenerates to one morsel per source at these sizes.
template <RingType R, typename DrawFn>
void CheckMorselEquivalence(const Query& q, const VariableOrder* vo,
                            DrawFn&& draw, uint64_t seed) {
  auto make = [&] {
    auto t = vo == nullptr ? ViewTree<R>::Make(q) : ViewTree<R>::Make(q, *vo);
    EXPECT_TRUE(t.ok());
    return *std::move(t);
  };
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (size_t morsel :
         {size_t{1}, size_t{64}, size_t{0}, size_t{1} << 20}) {
      ViewTree<R> sequential = make();
      ViewTree<R> parallel = make();
      parallel.SetThreads(threads);
      parallel.SetMorselBytes(morsel);
      Rng rng(seed);
      for (size_t size : {3u, 40u, 200u}) {
        std::vector<typename ViewTree<R>::BatchEntry> batch;
        for (size_t i = 0; i < size; ++i) batch.push_back(draw(rng));
        sequential.ApplyBatch(
            std::span<const typename ViewTree<R>::BatchEntry>(batch));
        parallel.ApplyBatch(
            std::span<const typename ViewTree<R>::BatchEntry>(batch));
        ExpectViewsIdentical(parallel, sequential);
      }
    }
  }
}

TEST(MorselBatchTest, MatchesSequentialIntRingTriangle) {
  // Cyclic query under a path order: every source fans out, so this sweep
  // exercises the emit segments hardest.
  Query q = TriangleQuery();
  auto vo = VariableOrder::FromPath(q, {A, B, C});
  ASSERT_TRUE(vo.ok());
  CheckMorselEquivalence<IntRing>(
      q, &*vo,
      [](Rng& rng) {
        return ViewTree<IntRing>::BatchEntry{
            rng.Uniform(3), Tuple{rng.UniformInt(0, 4), rng.UniformInt(0, 4)},
            rng.Chance(0.4) ? -1 : 1};
      },
      41);
}

TEST(MorselBatchTest, MatchesSequentialIntRingQHierarchical) {
  // Q-hierarchical: every source binds the node key, and its deltas run
  // the same morsel grid as the fan-out shapes.
  CheckMorselEquivalence<IntRing>(
      TheQuery(), nullptr,
      [](Rng& rng) {
        return ViewTree<IntRing>::BatchEntry{
            rng.Uniform(2), Tuple{rng.UniformInt(0, 5), rng.UniformInt(0, 5)},
            rng.Chance(0.4) ? -1 : 2};
      },
      42);
}

TEST(MorselBatchTest, MatchesSequentialProductRingFanout) {
  using PR = ProductRing<IntRing, IntRing>;
  Query q = FanoutQuery();
  auto vo = VariableOrder::FromPath(q, {A, B});
  ASSERT_TRUE(vo.ok());
  CheckMorselEquivalence<PR>(
      q, &*vo,
      [](Rng& rng) {
        int64_t m = rng.Chance(0.4) ? -1 : 1;
        if (rng.Chance(0.5)) {
          return ViewTree<PR>::BatchEntry{
              0, Tuple{rng.UniformInt(0, 20), rng.UniformInt(0, 3)},
              {m, 2 * m}};
        }
        return ViewTree<PR>::BatchEntry{1, Tuple{rng.UniformInt(0, 3)},
                                        {m, 2 * m}};
      },
      43);
}

TEST(MorselBatchTest, MatchesSequentialCovarRingFanout) {
  using CR = CovarRing<2>;
  Query q = FanoutQuery();
  auto vo = VariableOrder::FromPath(q, {A, B});
  ASSERT_TRUE(vo.ok());
  CheckMorselEquivalence<CR>(
      q, &*vo,
      [](Rng& rng) {
        CR::Value v = CR::Lift(rng.Uniform(2),
                               static_cast<double>(rng.UniformInt(1, 9)));
        if (rng.Chance(0.3)) v = CR::Neg(v);
        if (rng.Chance(0.5)) {
          return ViewTree<CR>::BatchEntry{
              0, Tuple{rng.UniformInt(0, 20), rng.UniformInt(0, 3)}, v};
        }
        return ViewTree<CR>::BatchEntry{1, Tuple{rng.UniformInt(0, 3)}, v};
      },
      44);
}

// Stronger than payload equality: at a fixed thread count, trees run at
// different morsel sizes share the same fixed shard partition and fold
// each shard in the sequential emission order, so even the physical
// layouts coincide — every W shard holds the same entries in the same
// dense order.
template <typename DrawFn>
void CheckShardLayoutUnderMorselSize(const Query& q, const VariableOrder* vo,
                                     DrawFn&& draw, uint64_t seed) {
  std::vector<ViewTree<IntRing>> trees;
  for (size_t morsel :
       {size_t{1}, size_t{64}, size_t{0}, size_t{1} << 20}) {
    auto t = vo == nullptr ? ViewTree<IntRing>::Make(q)
                           : ViewTree<IntRing>::Make(q, *vo);
    ASSERT_TRUE(t.ok());
    trees.push_back(*std::move(t));
    trees.back().SetThreads(4);
    trees.back().SetMorselBytes(morsel);
  }
  Rng rng(seed);
  for (int round = 0; round < 8; ++round) {
    std::vector<ViewTree<IntRing>::BatchEntry> batch;
    for (int i = 0; i < 150; ++i) batch.push_back(draw(rng));
    for (auto& t : trees) {
      t.ApplyBatch(std::span<const ViewTree<IntRing>::BatchEntry>(batch));
    }
    for (size_t k = 1; k < trees.size(); ++k) {
      ExpectViewsIdentical(trees[k], trees[0]);
      for (size_t n = 0; n < trees[0].plan().nodes().size(); ++n) {
        const auto& wa = trees[0].NodeW(static_cast<int>(n));
        const auto& wb = trees[k].NodeW(static_cast<int>(n));
        ASSERT_EQ(wa.num_shards(), wb.num_shards());
        for (size_t s = 0; s < wa.num_shards(); ++s) {
          const Relation<IntRing>& sa = wa.shard(s);
          const Relation<IntRing>& sb = wb.shard(s);
          ASSERT_EQ(sa.size(), sb.size())
              << "tree " << k << " node " << n << " shard " << s;
          auto ib = sb.begin();
          for (const auto& ea : sa) {
            ASSERT_EQ(ea.key, ib->key)
                << "tree " << k << " node " << n << " shard " << s;
            ASSERT_EQ(ea.value, ib->value);
            ++ib;
          }
        }
      }
    }
  }
}

TEST(MorselBatchTest, ShardLayoutInvariantUnderMorselSize) {
  auto draw_pair = [](Rng& rng, size_t atoms, int64_t domain) {
    return ViewTree<IntRing>::BatchEntry{
        rng.Uniform(atoms),
        Tuple{rng.UniformInt(0, domain), rng.UniformInt(0, domain)},
        rng.Chance(0.4) ? -1 : 1};
  };
  Query tri = TriangleQuery();
  auto tri_vo = VariableOrder::FromPath(tri, {A, B, C});
  ASSERT_TRUE(tri_vo.ok());
  CheckShardLayoutUnderMorselSize(
      tri, &*tri_vo, [&](Rng& rng) { return draw_pair(rng, 3, 4); }, 45);
  CheckShardLayoutUnderMorselSize(
      TheQuery(), nullptr, [&](Rng& rng) { return draw_pair(rng, 2, 9); },
      46);
  Query fan = FanoutQuery();
  auto fan_vo = VariableOrder::FromPath(fan, {A, B});
  ASSERT_TRUE(fan_vo.ok());
  CheckShardLayoutUnderMorselSize(
      fan, &*fan_vo,
      [](Rng& rng) {
        if (rng.Chance(0.5)) {
          return ViewTree<IntRing>::BatchEntry{
              0, Tuple{rng.UniformInt(0, 20), rng.UniformInt(0, 3)}, 1};
        }
        return ViewTree<IntRing>::BatchEntry{
            1, Tuple{rng.UniformInt(0, 3)}, rng.Chance(0.4) ? -1 : 1};
      },
      47);
}

TEST(MorselBatchTest, SetMorselBytesZeroRestoresDefault) {
  auto t = ViewTree<IntRing>::Make(TheQuery());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->morsel_bytes(), ViewTree<IntRing>::kDefaultMorselBytes);
  t->SetMorselBytes(4096);
  EXPECT_EQ(t->morsel_bytes(), 4096u);
  t->SetMorselBytes(0);
  EXPECT_EQ(t->morsel_bytes(), ViewTree<IntRing>::kDefaultMorselBytes);
}

TEST(ParallelBatchTest, SetThreadsMidStreamPreservesState) {
  // Reshard with data in place: sequential -> parallel -> sequential.
  auto make = [] {
    auto t = ViewTree<IntRing>::Make(TheQuery());
    EXPECT_TRUE(t.ok());
    return *std::move(t);
  };
  ViewTree<IntRing> toggled = make();
  ViewTree<IntRing> reference = make();
  Rng rng(40);
  for (int phase = 0; phase < 3; ++phase) {
    toggled.SetThreads(phase == 1 ? 4 : 1);
    std::vector<ViewTree<IntRing>::BatchEntry> batch;
    for (int i = 0; i < 120; ++i) {
      batch.push_back({rng.Uniform(2),
                       Tuple{rng.UniformInt(0, 6), rng.UniformInt(0, 6)},
                       rng.Chance(0.4) ? -1 : 1});
    }
    toggled.ApplyBatch(std::span<const ViewTree<IntRing>::BatchEntry>(batch));
    reference.ApplyBatch(
        std::span<const ViewTree<IntRing>::BatchEntry>(batch));
    ExpectViewsIdentical(toggled, reference);
  }
}

}  // namespace
}  // namespace incr
