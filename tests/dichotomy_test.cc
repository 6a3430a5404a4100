// Metamorphic consistency of the theory stack on random queries: the
// syntactic classifications of §4 must agree with what the compiled plans
// actually guarantee.
//
//   (1) IsHierarchical(q)  <=>  the canonical variable order exists;
//   (2) for hierarchical q, every canonical delta program is O(1);
//   (3) for hierarchical q, the canonical order supports constant-delay
//       enumeration  <=>  IsQHierarchical(q)   (Thm. 4.1's upper side);
//   (4) q-hierarchical  =>  free-connex alpha-acyclic (strict subclass,
//       §4.1);
//   (5) maintenance on the canonical order matches the oracle (spot).
#include <gtest/gtest.h>

#include "incr/core/view_tree.h"
#include "incr/cqap/cqap_engine.h"
#include "incr/engines/join.h"
#include "incr/query/cqap.h"
#include "incr/query/properties.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

// Random query generator: up to 4 variables, up to 4 atoms with random
// non-empty schemas, random free set.
Query RandomQuery(Rng& rng) {
  int n_vars = 1 + static_cast<int>(rng.Uniform(4));
  int n_atoms = 1 + static_cast<int>(rng.Uniform(4));
  std::vector<Atom> atoms;
  Schema used;
  for (int a = 0; a < n_atoms; ++a) {
    Schema s;
    for (Var v = 0; v < static_cast<Var>(n_vars); ++v) {
      if (rng.Chance(0.5)) s.push_back(v);
    }
    if (s.empty()) s.push_back(static_cast<Var>(rng.Uniform(n_vars)));
    used = SchemaUnion(used, s);
    std::string rel = "R";
    rel += std::to_string(a);
    atoms.push_back(Atom{std::move(rel), s});
  }
  Schema free;
  for (Var v : used) {
    if (rng.Chance(0.5)) free.push_back(v);
  }
  return Query("rand", free, std::move(atoms));
}

class DichotomyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DichotomyTest, ClassifiersAgreeWithCompiledPlans) {
  Rng rng(GetParam());
  int hierarchical_seen = 0, qh_seen = 0, non_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Query q = RandomQuery(rng);
    bool hier = IsHierarchical(q);
    bool qh = IsQHierarchical(q);
    auto vo = VariableOrder::Canonical(q);

    // (1) canonical order exists iff hierarchical.
    ASSERT_EQ(vo.ok(), hier) << q.ToString(VarRegistry());
    if (!hier) {
      ASSERT_FALSE(qh);
      ++non_seen;
      continue;
    }
    ++hierarchical_seen;
    auto plan = ViewTreePlan::Make(q, *vo);
    ASSERT_TRUE(plan.ok());
    // (2) canonical programs are all O(1) for hierarchical queries.
    ASSERT_TRUE(plan->AllProgramsConstantTime())
        << q.ToString(VarRegistry());
    // (3) constant-delay enumerability iff q-hierarchical.
    ASSERT_EQ(plan->CanEnumerate().ok(), qh) << q.ToString(VarRegistry());
    // (4) q-hierarchical => free-connex acyclic.
    if (qh) {
      ++qh_seen;
      ASSERT_TRUE(IsAlphaAcyclic(q));
      ASSERT_TRUE(IsFreeConnex(q));
    }
  }
  // The generator must actually exercise all three regions.
  EXPECT_GT(hierarchical_seen, 30);
  EXPECT_GT(qh_seen, 10);
  EXPECT_GT(non_seen, 30);
}

TEST_P(DichotomyTest, CanonicalMaintenanceMatchesOracle) {
  Rng rng(GetParam() + 100);
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 25; ++trial) {
    Query q = RandomQuery(rng);
    if (!IsQHierarchical(q)) continue;
    ++checked;
    auto tree = ViewTree<IntRing>::Make(q);
    ASSERT_TRUE(tree.ok());
    // Random valid update stream per-atom.
    std::vector<std::pair<size_t, Tuple>> live;
    for (int step = 0; step < 250; ++step) {
      if (!live.empty() && rng.Chance(0.3)) {
        size_t i = rng.Uniform(live.size());
        tree->UpdateAtom(live[i].first, live[i].second, -1);
        live[i] = live.back();
        live.pop_back();
      } else {
        size_t atom = rng.Uniform(q.atoms().size());
        Tuple t;
        for (size_t k = 0; k < q.atoms()[atom].schema.size(); ++k) {
          t.push_back(rng.UniformInt(0, 4));
        }
        tree->UpdateAtom(atom, t, 1);
        live.emplace_back(atom, t);
      }
    }
    std::vector<const Relation<IntRing>*> rels;
    for (size_t a = 0; a < q.atoms().size(); ++a) {
      rels.push_back(&tree->AtomRelation(a));
    }
    auto oracle = EvaluateQuery<IntRing>(q, rels);
    auto positions = ProjectionPositions(tree->OutputSchema(), q.free());
    size_t n = 0;
    for (ViewTreeEnumerator<IntRing> it(*tree); it.Valid(); it.Next()) {
      ASSERT_EQ(oracle.Payload(ProjectTuple(it.tuple(), positions)),
                it.payload())
          << q.ToString(VarRegistry());
      ++n;
    }
    ASSERT_EQ(n, oracle.size()) << q.ToString(VarRegistry());
  }
  EXPECT_EQ(checked, 25);
}

// Random CQAPs: tractability decisions are stable under fracturing (the
// fracture of a fracture's components is itself) and the tractable ones
// build working engines.
TEST_P(DichotomyTest, CqapTractabilityConsistency) {
  Rng rng(GetParam() + 999);
  int tractable_seen = 0, intractable_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Query q = RandomQuery(rng);
    Schema all = q.AllVars();
    // Random input/output split of the free variables.
    Schema input, output;
    for (Var v : q.free()) {
      (rng.Chance(0.5) ? input : output).push_back(v);
    }
    CqapQuery cq;
    cq.query = q;
    cq.input = input;
    cq.output = output;
    Fracture f = ComputeFracture(cq);
    // Component atoms partition the original atoms.
    size_t total = 0;
    for (const auto& comp : f.components) total += comp.atom_ids.size();
    ASSERT_EQ(total, q.atoms().size());
    bool tractable = IsTractableCqap(cq);
    auto engine = CqapEngine<IntRing>::Make(cq);
    ASSERT_EQ(engine.ok(), tractable) << q.ToString(VarRegistry());
    (tractable ? tractable_seen : intractable_seen)++;
  }
  EXPECT_GT(tractable_seen, 20);
  EXPECT_GT(intractable_seen, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DichotomyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace incr
