// DeltaBatch unit tests: per-atom ring-payload merging (duplicate tuples
// summed, zero results dropped), the surviving-delta count, the dense entry
// order consumers read through entries(), and the chunked MergeFrom that the
// parallel batch merge (engines/engine.h MergeNamedBatch) relies on.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/data/delta.h"
#include "incr/data/tuple.h"
#include "incr/ring/covar_ring.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

using IntBatch = DeltaBatch<IntRing>;

/// The entries of one atom in dense order.
template <RingType R>
std::vector<std::pair<Tuple, typename R::Value>> Entries(
    const DeltaBatch<R>& b, size_t atom) {
  std::vector<std::pair<Tuple, typename R::Value>> out;
  for (const auto& e : b.entries(atom)) out.emplace_back(e.key, e.value);
  return out;
}

/// The entries of one atom sorted by tuple (order-free contents).
template <RingType R>
std::vector<std::pair<Tuple, typename R::Value>> Contents(
    const DeltaBatch<R>& b, size_t atom) {
  auto out = Entries(b, atom);
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

using IntEntries = std::vector<std::pair<Tuple, int64_t>>;

TEST(DeltaBatchTest, DuplicatesAreSummedAndZeroResultsDropped) {
  IntBatch b(2);
  b.Add(0, Tuple{1}, 2);
  b.Add(0, Tuple{1}, 3);
  b.Add(1, Tuple{1}, 4);  // same tuple, other atom: kept apart
  EXPECT_EQ(Entries(b, 0), (IntEntries{{Tuple{1}, 5}}));
  EXPECT_EQ(Entries(b, 1), (IntEntries{{Tuple{1}, 4}}));

  b.Add(0, Tuple{1}, -5);  // sums to zero: dropped
  EXPECT_TRUE(b.of(0).empty());
  EXPECT_EQ(Entries(b, 1), (IntEntries{{Tuple{1}, 4}}));

  b.Add(0, Tuple{2}, 0);  // a zero delta is never stored
  EXPECT_TRUE(b.of(0).empty());

  b.Add(0, Tuple{1}, 7);  // a cancelled tuple can come back
  EXPECT_EQ(Entries(b, 0), (IntEntries{{Tuple{1}, 7}}));
}

TEST(DeltaBatchTest, SizeCountsSurvivingDeltas) {
  IntBatch b(1);
  EXPECT_TRUE(b.empty());
  b.Add(0, Tuple{1}, 1);
  b.Add(0, Tuple{1}, 1);  // merged: still one delta
  b.Add(0, Tuple{2}, 1);
  EXPECT_EQ(b.size(), 2u);

  b.Add(5, Tuple{1}, 0);  // a zero delta past num_atoms() leaves it as is
  EXPECT_EQ(b.num_atoms(), 1u);
  EXPECT_EQ(b.size(), 2u);

  b.Add(3, Tuple{1}, 1);  // an atom past num_atoms() grows the batch
  EXPECT_EQ(b.num_atoms(), 4u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.of(2).empty());
  EXPECT_TRUE(b.of(9).empty());  // out of range reads as empty

  b.Add(0, Tuple{2}, -1);  // cancelled
  b.Add(3, Tuple{1}, 5);   // changed in place
  EXPECT_EQ(b.size(), 2u);
  EXPECT_FALSE(b.empty());

  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.num_atoms(), 4u);
  EXPECT_TRUE(b.of(0).empty());
}

TEST(DeltaBatchTest, EntriesFollowInsertionOrderWithSwapRemove) {
  IntBatch b(1);
  for (int64_t k = 0; k < 5; ++k) b.Add(0, Tuple{k}, k + 1);
  EXPECT_EQ(Entries(b, 0), (IntEntries{{Tuple{0}, 1},
                                       {Tuple{1}, 2},
                                       {Tuple{2}, 3},
                                       {Tuple{3}, 4},
                                       {Tuple{4}, 5}}));
  b.Add(0, Tuple{2}, 10);  // in place: order unchanged
  b.Add(0, Tuple{1}, -2);  // cancels: the last entry (4) takes its place
  EXPECT_EQ(Entries(b, 0), (IntEntries{{Tuple{0}, 1},
                                       {Tuple{4}, 5},
                                       {Tuple{2}, 13},
                                       {Tuple{3}, 4}}));
  b.Add(0, Tuple{5}, 6);   // appends
  b.Add(0, Tuple{5}, -6);  // the last entry cancels: nothing moves
  b.Add(0, Tuple{0}, -1);  // the last entry (3) moves to the front
  EXPECT_EQ(Entries(b, 0),
            (IntEntries{{Tuple{3}, 4}, {Tuple{4}, 5}, {Tuple{2}, 13}}));
  EXPECT_EQ(b.size(), 3u);
}

/// Cuts `stream` into `chunks` contiguous chunks the way MergeNamedBatch
/// does, builds one batch per chunk, and merges them in input order.
template <RingType R>
DeltaBatch<R> ChunkedMerge(const std::vector<AtomDelta<R>>& stream,
                           size_t num_atoms, size_t chunks) {
  DeltaBatch<R> merged(num_atoms);
  const size_t per = stream.size() / chunks;
  const size_t extra = stream.size() % chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * per + std::min(c, extra);
    const size_t end = begin + per + (c < extra ? 1 : 0);
    DeltaBatch<R> local(num_atoms);
    for (size_t i = begin; i < end; ++i) local.Add(stream[i]);
    merged.MergeFrom(local);
  }
  return merged;
}

/// Random delta streams over a small key space (so tuples repeat and
/// cancel, within chunks and across chunk borders): every chunking's merged
/// contents equal one sequential AddAll. `value(rng)` draws a payload;
/// about a third of the deltas retract an earlier one exactly.
template <RingType R, typename ValueFn>
void ExpectChunkedMergeMatchesSequential(ValueFn&& value) {
  constexpr size_t kAtoms = 3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<AtomDelta<R>> stream;
    for (int i = 0; i < 400; ++i) {
      if (!stream.empty() && rng.Chance(0.3)) {
        AtomDelta<R> back = stream[rng.Uniform(stream.size())];
        back.delta = R::Neg(back.delta);
        stream.push_back(std::move(back));
      } else {
        stream.push_back(AtomDelta<R>{rng.Uniform(kAtoms),
                                      Tuple{rng.UniformInt(0, 15)},
                                      value(rng)});
      }
    }
    DeltaBatch<R> sequential(kAtoms);
    sequential.AddAll(stream);
    for (size_t chunks : {1, 2, 3, 7, 16}) {
      SCOPED_TRACE(chunks);
      const DeltaBatch<R> merged = ChunkedMerge(stream, kAtoms, chunks);
      ASSERT_EQ(merged.size(), sequential.size());
      for (size_t a = 0; a < kAtoms; ++a) {
        ASSERT_EQ(Contents(merged, a), Contents(sequential, a)) << a;
      }
    }
  }
}

TEST(DeltaBatchTest, ChunkedMergeFromEqualsSequentialAddIntRing) {
  ExpectChunkedMergeMatchesSequential<IntRing>(
      [](Rng& rng) { return rng.UniformInt(-3, 3); });
}

TEST(DeltaBatchTest, ChunkedMergeFromEqualsSequentialAddCovarRing) {
  // Integer-valued features: every partial sum is exact in a double, so
  // the chunks' regrouped additions give the same bits as the sequential
  // ones. With arbitrary doubles, a chunk that holds two deltas of one
  // tuple adds them before the earlier chunks' sum, and the results may
  // differ in the last bit.
  using Ring = CovarRing<2>;
  ExpectChunkedMergeMatchesSequential<Ring>([](Rng& rng) {
    Ring::Value v = Ring::Lift(rng.Uniform(2),
                               static_cast<double>(rng.UniformInt(-4, 4)));
    v.count = rng.UniformInt(-1, 2);
    return v;
  });
}

}  // namespace
}  // namespace incr
