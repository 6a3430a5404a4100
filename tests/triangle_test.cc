// Triangle maintainer tests (DESIGN.md invariants 6-7): all four strategies
// of paper §3 agree with each other under random insert/delete streams,
// including skewed streams that force heavy/light migrations and major
// rebalances; IVMe partition and view invariants hold after every update.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "incr/ivme/heavy_light.h"
#include "incr/ivme/triangle.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

TEST(HeavyLightTest, AppliesAndTracksDegrees) {
  HeavyLightRelation r(/*theta=*/4);
  r.Apply(1, 10, 2);
  r.Apply(1, 11, 1);
  r.Apply(2, 20, 1);
  EXPECT_EQ(r.Degree(1), 2);
  EXPECT_EQ(r.Degree(2), 1);
  EXPECT_EQ(r.Payload(1, 10), 2);
  EXPECT_EQ(r.PartOf(1), HeavyLightRelation::kLight);
  EXPECT_TRUE(r.InvariantsHold());

  // Payload update without tuple-count change keeps degree.
  r.Apply(1, 10, 5);
  EXPECT_EQ(r.Degree(1), 2);

  // Deleting to zero reduces the degree.
  r.Apply(1, 11, -1);
  EXPECT_EQ(r.Degree(1), 1);
}

TEST(HeavyLightTest, PromotionAndDemotionThresholds) {
  HeavyLightRelation r(/*theta=*/2);
  for (Value b = 0; b < 4; ++b) r.Apply(7, b, 1);
  EXPECT_TRUE(r.ShouldPromote(7));  // degree 4 >= 2*theta
  r.Migrate(7);
  EXPECT_EQ(r.PartOf(7), HeavyLightRelation::kHeavy);
  EXPECT_EQ(r.heavy().size(), 4u);
  EXPECT_EQ(r.light().size(), 0u);
  EXPECT_TRUE(r.InvariantsHold());
  EXPECT_EQ(r.Payload(7, 2), 1);

  for (Value b = 0; b < 4; ++b) r.Apply(7, b, -1);
  EXPECT_TRUE(r.ShouldDemote(7));  // degree 0, 2*0 < theta
  r.Migrate(7);
  EXPECT_EQ(r.PartOf(7), HeavyLightRelation::kLight);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.InvariantsHold());
}

TEST(HeavyLightTest, GroupLookupsSpanTheCorrectPart) {
  HeavyLightRelation r(/*theta=*/1);
  r.Apply(5, 50, 1);
  r.Apply(5, 51, 1);
  if (r.ShouldPromote(5)) r.Migrate(5);
  EXPECT_EQ(r.PartOf(5), HeavyLightRelation::kHeavy);
  std::vector<uint32_t> scratch;
  EXPECT_EQ(r.Group(5, &scratch).size(), 2u);
  EXPECT_FALSE(
      r.GroupByOther(HeavyLightRelation::kHeavy, 50, &scratch).empty());
  EXPECT_TRUE(
      r.GroupByOther(HeavyLightRelation::kLight, 50, &scratch).empty());
}

TEST(HeavyLightTest, ExtractAllSeesBothParts) {
  HeavyLightRelation r(/*theta=*/1);
  r.Apply(1, 10, 3);
  r.Apply(2, 20, 4);
  r.Apply(2, 21, 5);
  if (r.ShouldPromote(2)) r.Migrate(2);
  std::vector<std::pair<Tuple, int64_t>> all;
  r.ExtractAll(&all);
  EXPECT_EQ(all.size(), 3u);
}

TEST(TriangleCountersTest, PaperExampleAllStrategies) {
  // The running example of §3 (Fig. 2): count 5, then deltaR -> count 3.
  std::vector<std::unique_ptr<TriangleCounter>> counters;
  counters.push_back(std::make_unique<NaiveTriangleCounter>());
  counters.push_back(std::make_unique<DeltaTriangleCounter>());
  counters.push_back(std::make_unique<MaterializedTriangleCounter>());
  counters.push_back(std::make_unique<IvmEpsTriangleCounter>(0.5));
  for (auto& c : counters) {
    c->Update(TriangleRel::kR, 1, 11, 1);
    c->Update(TriangleRel::kR, 2, 11, 3);
    c->Update(TriangleRel::kR, 2, 12, 1);
    c->Update(TriangleRel::kS, 11, 21, 2);
    c->Update(TriangleRel::kS, 11, 22, 1);
    c->Update(TriangleRel::kT, 21, 1, 1);
    c->Update(TriangleRel::kT, 22, 2, 1);
    EXPECT_EQ(c->Count(), 5) << c->name();
    EXPECT_TRUE(c->Detect()) << c->name();
    c->Update(TriangleRel::kR, 2, 11, -2);
    EXPECT_EQ(c->Count(), 3) << c->name();
  }
}

struct StreamParams {
  uint64_t seed;
  double epsilon;
  double zipf_skew;      // skew of the key domain (drives migrations)
  int64_t domain;        // value domain size
  int steps;
  double delete_prob;
};

class TriangleStreamTest : public ::testing::TestWithParam<StreamParams> {};

TEST_P(TriangleStreamTest, AllStrategiesAgreeAndInvariantsHold) {
  const StreamParams p = GetParam();
  Rng rng(p.seed);
  ZipfSampler zipf(static_cast<uint64_t>(p.domain), p.zipf_skew);

  NaiveTriangleCounter naive;
  DeltaTriangleCounter delta;
  MaterializedTriangleCounter mat;
  IvmEpsTriangleCounter eps(p.epsilon);

  // Track inserted tuples so deletes hit existing data.
  std::vector<std::pair<TriangleRel, Tuple>> live;

  for (int step = 0; step < p.steps; ++step) {
    TriangleRel rel;
    Value x, y;
    int64_t m;
    if (!live.empty() && rng.Chance(p.delete_prob)) {
      size_t i = rng.Uniform(live.size());
      rel = live[i].first;
      x = live[i].second[0];
      y = live[i].second[1];
      m = -1;
      live[i] = live.back();
      live.pop_back();
    } else {
      rel = static_cast<TriangleRel>(rng.Uniform(3));
      x = static_cast<Value>(zipf.Sample(rng));
      y = static_cast<Value>(zipf.Sample(rng));
      m = rng.Chance(0.2) ? 2 : 1;  // occasional multiplicity > 1
      live.emplace_back(rel, Tuple{x, y});
    }
    naive.Update(rel, x, y, m);
    delta.Update(rel, x, y, m);
    mat.Update(rel, x, y, m);
    eps.Update(rel, x, y, m);

    ASSERT_EQ(delta.Count(), eps.Count()) << "step " << step;
    ASSERT_EQ(mat.Count(), eps.Count()) << "step " << step;
    if (step % 257 == 0) {
      ASSERT_EQ(naive.Count(), eps.Count()) << "step " << step;
      ASSERT_TRUE(eps.InvariantsHold()) << "step " << step;
    }
  }
  EXPECT_EQ(naive.Count(), eps.Count());
  EXPECT_TRUE(eps.InvariantsHold());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, TriangleStreamTest,
    ::testing::Values(
        // Uniform, balanced: exercises major rebalances as N grows.
        StreamParams{1, 0.5, 0.0, 40, 4000, 0.2},
        // Heavy skew: forces promotions/demotions of hot keys.
        StreamParams{2, 0.5, 1.3, 60, 4000, 0.3},
        // Eps extremes: eps=0 (everything effectively light-threshold 1),
        // eps=1 (threshold N, everything light).
        StreamParams{3, 0.0, 1.0, 30, 2500, 0.25},
        StreamParams{4, 1.0, 1.0, 30, 2500, 0.25},
        // Small dense domain: many multiplicity updates and zero-crossings.
        StreamParams{5, 0.5, 0.5, 12, 3000, 0.45},
        // Delete-heavy: shrinking phases trigger downward major rebalances.
        StreamParams{6, 0.75, 0.8, 25, 3000, 0.48}));

TEST(IvmEpsTriangleTest, MigrationsAndRebalancesActuallyHappen) {
  // Sanity that the adaptive machinery is exercised: a hot key grows far
  // past any fixed threshold, then shrinks back.
  IvmEpsTriangleCounter eps(0.5);
  for (Value i = 0; i < 400; ++i) eps.Update(TriangleRel::kR, 7, i, 1);
  for (Value i = 0; i < 400; ++i) eps.Update(TriangleRel::kR, 7, i, -1);
  EXPECT_GT(eps.num_migrations(), 0);
  EXPECT_GT(eps.num_major_rebalances(), 1);
  EXPECT_EQ(eps.Count(), 0);
  EXPECT_TRUE(eps.InvariantsHold());
}

TEST(IvmEpsTriangleTest, CountSurvivesMajorRebalance) {
  IvmEpsTriangleCounter eps(0.5);
  NaiveTriangleCounter naive;
  // Build a clique-ish structure, then grow N by 4x to force rebalances.
  for (Value v = 0; v < 12; ++v) {
    for (Value w = 0; w < 12; ++w) {
      eps.Update(TriangleRel::kR, v, w, 1);
      eps.Update(TriangleRel::kS, v, w, 1);
      eps.Update(TriangleRel::kT, v, w, 1);
      naive.Update(TriangleRel::kR, v, w, 1);
      naive.Update(TriangleRel::kS, v, w, 1);
      naive.Update(TriangleRel::kT, v, w, 1);
    }
  }
  EXPECT_EQ(eps.Count(), naive.Count());
  EXPECT_EQ(eps.Count(), 12 * 12 * 12);
  EXPECT_TRUE(eps.InvariantsHold());
}

TEST(TriangleCountersTest, NegativeTransientsCancelOut)  {
  // Out-of-order execution (paper §2): delete before insert; the cumulative
  // effect must match in-order execution.
  IvmEpsTriangleCounter eps(0.5);
  eps.Update(TriangleRel::kR, 1, 2, -1);  // delete first (payload -1)
  eps.Update(TriangleRel::kS, 2, 3, 1);
  eps.Update(TriangleRel::kT, 3, 1, 1);
  EXPECT_EQ(eps.Count(), -1);  // transient negative count
  eps.Update(TriangleRel::kR, 1, 2, 2);   // now insert twice
  EXPECT_EQ(eps.Count(), 1);
}

}  // namespace
}  // namespace incr
