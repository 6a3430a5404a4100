// Tests for EXPLAIN / EXPLAIN ANALYZE (src/incr/obs/explain.h): golden
// renderings for one q-hierarchical and one hierarchical-but-not-
// q-hierarchical query, agreement of the report's classification and
// per-tree cost flags with query/properties.h and the compiled plan on
// randomly generated queries (the dichotomy_test oracle surface), and the
// ANALYZE reconciliation contract: node apply-ns sums stay inside the
// engine's registry batch envelope. Suite names start with "Obs" so the
// TSan CI job picks them up via its -R filter.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "incr/check/qgen.h"
#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/obs/explain.h"
#include "incr/obs/metrics.h"
#include "incr/query/properties.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

enum : Var { A = 0, B = 1, C = 2 };

struct EnabledGuard {
  bool was = obs::Enabled();
  ~EnabledGuard() { obs::SetEnabled(was); }
};

ViewTreeEngine<IntRing> MakeEngine(const Query& q) {
  auto tree = ViewTree<IntRing>::Make(q);
  EXPECT_TRUE(tree.ok());
  return ViewTreeEngine<IntRing>(*std::move(tree));
}

TEST(ObsExplainTest, GoldenTextQHierarchical) {
  // Q(A, B) = R(A, B) * S(B): q-hierarchical, canonical order roots at B.
  Query q("Q", Schema{A, B}, {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B}}});
  ASSERT_TRUE(IsQHierarchical(q));
  ViewTreeEngine<IntRing> engine = MakeEngine(q);
  const std::string text = engine.Explain(false).ToText();
  const std::string expected =
      "EXPLAIN engine=view-tree ring=int\n"
      "query: Q(v0, v1) = R(v0, v1) * S(v1)\n"
      "class: hierarchical=yes q-hierarchical=yes alpha-acyclic=yes "
      "free-connex=yes\n"
      "regime: O(1) single-tuple update and O(1)-delay enumeration "
      "(Thm 4.1)\n"
      "threads: 1\n"
      "tree view-tree: nodes=2 o1-updates=yes o1-delay=yes shards=1 "
      "morsel=16384B snapshots=off\n"
      "  node  var  parent  free  key   atoms  progs  scans  cost\n"
      "  0     v1   -       yes   ()    S      2      0      O(1)\n"
      "  1     v0   0       yes   (v1)  R      1      0      O(1)\n";
  EXPECT_EQ(text, expected);
}

TEST(ObsExplainTest, GoldenTextHierarchicalNotQHierarchical) {
  // Q(A) = R(A, B) * S(B): hierarchical (atoms(A) subset atoms(B)) but the
  // free variable A sits below the bound B on the canonical order, so
  // enumeration is not constant-delay (Def. 4.2 fails).
  Query q("Q", Schema{A}, {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B}}});
  ASSERT_TRUE(IsHierarchical(q));
  ASSERT_FALSE(IsQHierarchical(q));
  ViewTreeEngine<IntRing> engine = MakeEngine(q);
  const std::string text = engine.Explain(false).ToText();
  const std::string expected =
      "EXPLAIN engine=view-tree ring=int\n"
      "query: Q(v0) = R(v0, v1) * S(v1)\n"
      "class: hierarchical=yes q-hierarchical=no alpha-acyclic=yes "
      "free-connex=yes\n"
      "regime: O(1) single-tuple update on this order; free variables "
      "not ancestor-closed, so enumeration is not constant-delay\n"
      "threads: 1\n"
      "tree view-tree: nodes=2 o1-updates=yes o1-delay=no shards=1 "
      "morsel=16384B snapshots=off\n"
      "  node  var  parent  free  key   atoms  progs  scans  cost\n"
      "  0     v1   -       no    ()    S      2      0      O(1)\n"
      "  1     v0   0       yes   (v1)  R      1      0      O(1)\n";
  EXPECT_EQ(text, expected);
}

TEST(ObsExplainTest, JsonCarriesClassificationAndCost) {
  Query q("Q", Schema{A, B}, {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B}}});
  ViewTreeEngine<IntRing> engine = MakeEngine(q);
  const std::string json = engine.Explain(false).ToJson();
  EXPECT_NE(json.find("\"engine\": \"view-tree\""), std::string::npos);
  EXPECT_NE(json.find("\"q_hierarchical\": true"), std::string::npos);
  EXPECT_NE(json.find("\"cost\": \"O(1)\""), std::string::npos);
  EXPECT_NE(json.find("\"o1_updates\": true"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// The acceptance surface shared with dichotomy_test: on every generated
// query shape, the report's classification must equal query/properties.h,
// the per-tree flags must equal the compiled plan's, and O(1) updates plus
// O(1) delay must coincide exactly with q-hierarchical (Thm 4.1).
class ObsExplainAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObsExplainAgreementTest, ReportAgreesWithOracleOnRandomQueries) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    check::GenQuery g = check::GenerateQuery(rng);
    auto tree = ViewTree<IntRing>::Make(g.query, g.vo);
    ASSERT_TRUE(tree.ok()) << g.text;
    const bool plan_o1_updates = tree->plan().AllProgramsConstantTime();
    const bool plan_o1_delay = tree->plan().CanEnumerate().ok();
    ViewTreeEngine<IntRing> engine(*std::move(tree));
    obs::ExplainReport report = engine.Explain(false);

    EXPECT_EQ(report.hierarchical, IsHierarchical(g.query)) << g.text;
    EXPECT_EQ(report.q_hierarchical, IsQHierarchical(g.query)) << g.text;
    EXPECT_EQ(report.alpha_acyclic, IsAlphaAcyclic(g.query)) << g.text;
    EXPECT_EQ(report.free_connex, IsFreeConnex(g.query)) << g.text;

    ASSERT_EQ(report.trees.size(), 1u) << g.text;
    const obs::ExplainTree& t = report.trees[0];
    EXPECT_EQ(t.o1_updates, plan_o1_updates) << g.text;
    EXPECT_EQ(t.o1_delay, plan_o1_delay) << g.text;
    // Thm 4.1's dichotomy over qgen's order-selection rule (canonical for
    // hierarchical+enumerable, free-first path otherwise): both O(1) sides
    // at once iff the query is q-hierarchical.
    EXPECT_EQ(t.o1_updates && t.o1_delay, report.q_hierarchical) << g.text;
    // Per-node cost classes must aggregate to the tree flag.
    size_t scan_programs = 0;
    for (const obs::ExplainNode& n : t.nodes) scan_programs += n.scan_programs;
    EXPECT_EQ(scan_programs == 0, t.o1_updates) << g.text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsExplainAgreementTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(ObsExplainTest, AnalyzeJoinsLiveStatsAndReconcilesTotals) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  obs::SetEnabled(true);
  // Registry totals are per engine *name* and process-global: reset first
  // so the envelope below covers exactly this test's operations.
  obs::MetricsRegistry::Global().Reset();

  Query q("Q", Schema{A, B}, {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B}}});
  ViewTreeEngine<IntRing> engine = MakeEngine(q);
  std::vector<Delta<IntRing>> batch;
  for (int64_t i = 0; i < 5000; ++i) {
    batch.push_back(Delta<IntRing>{"R", Tuple{i % 100, i % 37}, 1});
    batch.push_back(Delta<IntRing>{"S", Tuple{i % 37}, 1});
  }
  engine.ApplyBatch(batch);
  engine.ApplyBatch(batch);
  engine.Update("R", Tuple{1, 2}, 1);
  engine.Update("S", Tuple{2}, 1);

  obs::ExplainReport report = engine.Explain(true);
  ASSERT_TRUE(report.analyze);
  ASSERT_TRUE(report.totals.present);
  EXPECT_EQ(report.totals.batches, 2u);
  EXPECT_EQ(report.totals.batch_deltas, 2 * batch.size());
  EXPECT_EQ(report.totals.updates, 2u);

  // Live node stats joined onto the tree: every *merged* delta entered
  // some node (DeltaBatch pre-sums duplicate tuples per atom, so the node
  // counters see distinct tuples — lcm(100, 37) = 3700 R pairs plus 37 S
  // values per batch — not the raw 10000).
  ASSERT_EQ(report.trees.size(), 1u);
  uint64_t tuples_in = 0;
  uint64_t batch_calls = 0;
  for (const obs::ExplainNode& n : report.trees[0].nodes) {
    EXPECT_TRUE(n.live);
    tuples_in += n.tuples_in;
    batch_calls += n.batch_calls;
  }
  EXPECT_GE(tuples_in, 2u * (3700 + 37));
  EXPECT_GE(batch_calls, 2u);

  // Reconciliation: per-node maintenance time is measured strictly inside
  // the facade's batch timer, so the sums must nest.
  EXPECT_GT(report.totals.node_apply_ns, 0u);
  EXPECT_LE(report.totals.node_apply_ns, report.totals.batch_ns);
}

TEST(ObsExplainTest, VarNamesOverrideFallbackRendering) {
  Query q("Q", Schema{A, B}, {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B}}});
  ViewTreeEngine<IntRing> engine = MakeEngine(q);
  obs::ExplainReport report = engine.Explain(false);
  report.var_names = {"x", "y"};
  EXPECT_EQ(obs::RenderQuery(q, report.var_names),
            "Q(x, y) = R(x, y) * S(y)");
  const std::string text = report.ToText();
  EXPECT_NE(text.find("  1     x    0       yes   (y)"), std::string::npos);
}

}  // namespace
}  // namespace incr
