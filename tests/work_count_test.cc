// Deterministic work counts per view-tree node (NodeObs index_probes,
// members_scanned, indexed_writes): the paper's update bounds are claims
// about work, so these counts are pinned for a fixed update stream over
// the two query shapes of the wire-oltp benchmark (COUNT and AVG over
// R(a, b) JOIN S(b, c, d)). A change to how an index stores its groups
// moves the cost per write, never these numbers. For the q-hierarchical
// COUNT query the counts per single-tuple update are also the same at
// |DB| = N and 8N (Thm. 4.1's O(1) update, checked as work, not time).
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/core/view_tree.h"
#include "incr/obs/metrics.h"
#include "incr/query/properties.h"
#include "incr/ring/int_ring.h"
#include "incr/ring/product_ring.h"
#include "incr/sql/sql.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

using AvgRing = ProductRing<IntRing, IntRing>;

constexpr const char* kSqlCount =
    "CREATE TABLE R (a, b); CREATE TABLE S (b, c, d); "
    "SELECT R.a, R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b;";
constexpr const char* kSqlAvg =
    "CREATE TABLE R (a, b); CREATE TABLE S (b, c, d); "
    "SELECT R.a, R.b, AVG(S.d) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b;";
// Not q-hierarchical (free a sits below bound b): an S update scans the R
// group of its b, so this shape exercises members_scanned.
constexpr const char* kSqlScan =
    "CREATE TABLE R (a, b); CREATE TABLE S (b, c, d); "
    "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.a;";

struct EnabledGuard {
  bool was = obs::Enabled();
  EnabledGuard() { obs::SetEnabled(true); }
  ~EnabledGuard() { obs::SetEnabled(was); }
};

struct NamedDelta {
  std::string rel;  // "R" or "S"
  Tuple t;
  int64_t m;
};

template <RingType R>
typename R::Value Payload(const sql::CompiledSql& c, const NamedDelta& d) {
  if constexpr (std::is_same_v<R, AvgRing>) {
    return sql::LiftPair(c, d.rel, d.t, d.m);
  } else {
    return sql::LiftInt(c, d.rel, d.t, d.m);
  }
}

template <RingType R>
struct Compiled {
  sql::CompiledSql sql;
  ViewTree<R> tree;
};

template <RingType R>
Compiled<R> Compile(const char* text) {
  VarRegistry vars;
  auto c = sql::CompileSql(text, &vars);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  auto vo = EnumerableOrderFor(c->query);
  EXPECT_TRUE(vo.ok());
  auto tree = ViewTree<R>::Make(c->query, *std::move(vo));
  EXPECT_TRUE(tree.ok());
  return Compiled<R>{*std::move(c), *std::move(tree)};
}

template <RingType R>
void ApplyBatch(Compiled<R>* q, const std::vector<NamedDelta>& ds) {
  const Query& query = q->tree.query();
  DeltaBatch<R> batch(query.atoms().size());
  for (const NamedDelta& d : ds) {
    for (size_t a = 0; a < query.atoms().size(); ++a) {
      if (query.atoms()[a].relation == d.rel) {
        batch.Add(a, d.t, Payload<R>(q->sql, d));
      }
    }
  }
  q->tree.ApplyBatch(batch);
}

NamedDelta DrawInsert(Rng& rng) {
  if (rng.Chance(0.5)) {
    return {"R", Tuple{rng.UniformInt(0, 63), rng.UniformInt(0, 63)}, 1};
  }
  return {"S",
          Tuple{rng.UniformInt(0, 63), rng.UniformInt(0, 15),
                rng.UniformInt(0, 99)},
          1};
}

/// The fixed stream: 400 preloaded rows, then 60 batches of 8 deltas,
/// each an insert or (half the time, when possible) the retraction of an
/// earlier row — the shape of one wire-oltp client.
std::vector<std::vector<NamedDelta>> Stream() {
  Rng rng(20240611);
  std::vector<std::vector<NamedDelta>> out;
  std::vector<NamedDelta> live;
  for (int b = 0; b < 8; ++b) {
    std::vector<NamedDelta> batch;
    for (int i = 0; i < 50; ++i) {
      batch.push_back(DrawInsert(rng));
      live.push_back(batch.back());
    }
    out.push_back(std::move(batch));
  }
  for (int b = 0; b < 60; ++b) {
    std::vector<NamedDelta> batch;
    for (int i = 0; i < 8; ++i) {
      if (!live.empty() && rng.Chance(0.5)) {
        const size_t k = rng.Uniform(live.size());
        NamedDelta d = live[k];
        live[k] = live.back();
        live.pop_back();
        d.m = -d.m;
        batch.push_back(std::move(d));
      } else {
        batch.push_back(DrawInsert(rng));
        live.push_back(batch.back());
      }
    }
    out.push_back(std::move(batch));
  }
  return out;
}

/// "node:probes/scanned/writes" per node, space-separated.
template <RingType R>
std::string Counts(const ViewTree<R>& tree) {
  std::string out;
  for (size_t n = 0; n < tree.plan().nodes().size(); ++n) {
    const auto& no = tree.node_stats(static_cast<int>(n));
    if (!out.empty()) out += " ";
    out += std::to_string(n) + ":" + std::to_string(no.index_probes) + "/" +
           std::to_string(no.members_scanned) + "/" +
           std::to_string(no.indexed_writes);
  }
  return out;
}

template <RingType R>
std::string StreamCounts(const char* sql_text, size_t threads = 1) {
  Compiled<R> q = Compile<R>(sql_text);
  q.tree.SetThreads(threads);
  q.tree.ResetNodeStats();
  for (const auto& batch : Stream()) ApplyBatch(&q, batch);
  return Counts(q.tree);
}

TEST(WorkCountTest, PinnedForCountQueryStream) {
  EnabledGuard obs_on;
  EXPECT_EQ(StreamCounts<IntRing>(kSqlCount),
            "0:793/0/671 1:0/0/431 2:0/0/442 3:0/0/445");
}

TEST(WorkCountTest, PinnedForAvgQueryStream) {
  EnabledGuard obs_on;
  EXPECT_EQ(StreamCounts<AvgRing>(kSqlAvg),
            "0:795/0/672 1:0/0/431 2:0/0/442 3:0/0/445");
}

TEST(WorkCountTest, PinnedForScanQueryStream) {
  EnabledGuard obs_on;
  EXPECT_EQ(StreamCounts<IntRing>(kSqlScan),
            "0:0/0/1070 1:834/1004/1795 2:0/0/442 3:0/0/445");
}

TEST(WorkCountTest, ParallelPathCountsTheSameWork) {
  EnabledGuard obs_on;
  EXPECT_EQ(StreamCounts<IntRing>(kSqlScan, /*threads=*/2),
            StreamCounts<IntRing>(kSqlScan));
  // The q-hierarchical shape: every source binds its node's key.
  EXPECT_EQ(StreamCounts<IntRing>(kSqlCount, /*threads=*/2),
            StreamCounts<IntRing>(kSqlCount));
}

TEST(WorkCountTest, CountsOnlyWhileObsIsOn) {
  const bool was = obs::Enabled();
  obs::SetEnabled(false);
  Compiled<IntRing> q = Compile<IntRing>(kSqlCount);
  for (const auto& batch : Stream()) ApplyBatch(&q, batch);
  obs::SetEnabled(was);
  for (size_t n = 0; n < q.tree.plan().nodes().size(); ++n) {
    const auto& no = q.tree.node_stats(static_cast<int>(n));
    EXPECT_EQ(no.index_probes, 0u);
    EXPECT_EQ(no.members_scanned, 0u);
    EXPECT_EQ(no.indexed_writes, 0u);
  }
}

/// Loads `n` rows per table (keys over a domain growing with n, every b in
/// [0, 8) joined on both sides), then returns the counts of each of four
/// fixed single-tuple updates on its own.
std::vector<std::string> SingleUpdateCounts(const char* sql_text,
                                            int64_t n) {
  Compiled<IntRing> q = Compile<IntRing>(sql_text);
  Rng rng(99);
  std::vector<NamedDelta> load;
  for (int64_t b = 0; b < 8; ++b) {
    load.push_back({"R", Tuple{b, b}, 1});
    load.push_back({"S", Tuple{b, 0, 0}, 1});
  }
  for (int64_t i = 0; i < n; ++i) {
    load.push_back(
        {"R", Tuple{rng.UniformInt(0, n), rng.UniformInt(0, n / 4)}, 1});
    load.push_back({"S",
                    Tuple{rng.UniformInt(0, n / 4), rng.UniformInt(0, 15),
                          rng.UniformInt(0, 99)},
                    1});
  }
  ApplyBatch(&q, load);
  const std::vector<NamedDelta> updates = {
      {"R", Tuple{-1, 3}, 1},
      {"S", Tuple{5, -1, 7}, 1},
      {"R", Tuple{-1, 3}, -1},
      {"S", Tuple{5, -1, 7}, -1},
  };
  std::vector<std::string> out;
  for (const NamedDelta& d : updates) {
    q.tree.ResetNodeStats();
    q.tree.Update(d.rel, d.t, Payload<IntRing>(q.sql, d));
    out.push_back(Counts(q.tree));
  }
  return out;
}

TEST(WorkCountTest, QHierarchicalUpdateWorkIsFlatInDatabaseSize) {
  EnabledGuard obs_on;
  ASSERT_TRUE(IsQHierarchical(Compile<IntRing>(kSqlCount).tree.query()));
  const std::vector<std::string> small = SingleUpdateCounts(kSqlCount, 500);
  const std::vector<std::string> large = SingleUpdateCounts(kSqlCount, 4000);
  EXPECT_EQ(small, large);
  // Each update did some indexed work (the counts are not vacuous).
  for (const std::string& s : small) {
    EXPECT_NE(s.find("/1"), std::string::npos) << s;
  }
  // Negative control: the non-q-hierarchical shape's S updates scan a
  // group whose size grows with the database.
  ASSERT_FALSE(IsQHierarchical(Compile<IntRing>(kSqlScan).tree.query()));
  EXPECT_NE(SingleUpdateCounts(kSqlScan, 500),
            SingleUpdateCounts(kSqlScan, 4000));
}

}  // namespace
}  // namespace incr
