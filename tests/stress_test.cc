// Cross-engine differential stress: one shared random scenario drives
// every triangle maintainer, the generic view tree, LFTJ, and the
// k-clique counter side by side; all counts must agree at every
// checkpoint. Catches integration drift that per-module suites can miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/engines/join.h"
#include "incr/engines/leapfrog.h"
#include "incr/ivme/kclique.h"
#include "incr/ivme/triangle.h"
#include "incr/query/properties.h"
#include "incr/ring/int_ring.h"
#include "incr/serve/client.h"
#include "incr/serve/server.h"
#include "incr/sql/sql.h"
#include "incr/util/rng.h"
#include "incr/workload/graph.h"

namespace incr {
namespace {

enum : Var { A = 0, B = 1, C = 2 };

TEST(StressTest, TriangleCountSixWays) {
  // The same update stream applied to: naive, delta, materialized,
  // IVMe(0.3), IVMe(0.7), a generic view tree over a path order, and
  // recomputation via LFTJ. Seven independent code paths, one number.
  Query q("tri", Schema{},
          {Atom{"R", Schema{A, B}}, Atom{"S", Schema{B, C}},
           Atom{"T", Schema{C, A}}});
  auto vo = VariableOrder::FromPath(q, {A, B, C});
  ASSERT_TRUE(vo.ok());
  auto tree = ViewTree<IntRing>::Make(q, *std::move(vo));
  ASSERT_TRUE(tree.ok());

  NaiveTriangleCounter naive;
  DeltaTriangleCounter delta;
  MaterializedTriangleCounter mat;
  IvmEpsTriangleCounter eps3(0.3);
  IvmEpsTriangleCounter eps7(0.7);

  GraphStream stream(/*n_vertices=*/60, /*s=*/1.1, /*window=*/900,
                     /*seed=*/77);
  for (int step = 1; step <= 6000; ++step) {
    auto e = stream.Next();
    auto rel = static_cast<TriangleRel>(step % 3);
    naive.Update(rel, e.src, e.dst, e.delta);
    delta.Update(rel, e.src, e.dst, e.delta);
    mat.Update(rel, e.src, e.dst, e.delta);
    eps3.Update(rel, e.src, e.dst, e.delta);
    eps7.Update(rel, e.src, e.dst, e.delta);
    size_t atom = static_cast<size_t>(rel);
    tree->UpdateAtom(atom, Tuple{e.src, e.dst}, e.delta);

    int64_t expect = delta.Count();
    ASSERT_EQ(mat.Count(), expect) << step;
    ASSERT_EQ(eps3.Count(), expect) << step;
    ASSERT_EQ(eps7.Count(), expect) << step;
    ASSERT_EQ(tree->Aggregate(), expect) << step;
    if (step % 617 == 0) {
      ASSERT_EQ(naive.Count(), expect) << step;
      ASSERT_TRUE(eps3.InvariantsHold()) << step;
      ASSERT_TRUE(eps7.InvariantsHold()) << step;
      std::vector<const Relation<IntRing>*> rels;
      for (size_t a = 0; a < 3; ++a) rels.push_back(&tree->AtomRelation(a));
      ASSERT_EQ(LeapfrogCount(q, rels, {A, B, C}), expect) << step;
    }
  }
}

TEST(StressTest, UndirectedTriangleVsKClique) {
  // For a simple undirected graph (no self-loops, 0/1 edges), the directed
  // 3-cycle count over the symmetrized edge relation is 6x the undirected
  // triangle count — tying the TriangleCounter family to KCliqueCounter.
  KCliqueCounter cliques(3);
  IvmEpsTriangleCounter cycles(0.5);
  Rng rng(5);
  DenseMap<Tuple, char, TupleHash, TupleEq> present;
  for (int step = 0; step < 2500; ++step) {
    Value u = rng.UniformInt(0, 25);
    Value v = rng.UniformInt(0, 25);
    if (u == v) continue;
    Tuple key{std::min(u, v), std::max(u, v)};
    bool want = rng.Chance(0.55);
    const size_t slot = present.FindSlot(key);
    if (want == (slot != kNoSlot)) continue;
    int64_t d = want ? 1 : -1;
    if (want) {
      present.FindOrInsert(key, 1);
    } else {
      present.EraseSlot(slot);
    }
    cliques.SetEdge(u, v, want);
    for (auto [x, y] : {std::pair{u, v}, std::pair{v, u}}) {
      cycles.Update(TriangleRel::kR, x, y, d);
      cycles.Update(TriangleRel::kS, x, y, d);
      cycles.Update(TriangleRel::kT, x, y, d);
    }
    if (step % 203 == 0) {
      ASSERT_EQ(cycles.Count(), 6 * cliques.Count()) << step;
    }
  }
  EXPECT_EQ(cycles.Count(), 6 * cliques.Count());
}

TEST(StressTest, QHierarchicalLongHaul) {
  // A deeper q-hierarchical query under a long valid stream, checked
  // against the oracle at sparse checkpoints.
  enum : Var { W = 3, X = 4, Y = 5, Z = 6 };
  Query q("deep", Schema{W, X, Y, Z},
          {Atom{"R", Schema{W, X}}, Atom{"S", Schema{W, X, Y}},
           Atom{"T", Schema{W, Z}}, Atom{"U", Schema{W}}});
  ASSERT_TRUE(IsQHierarchical(q));
  auto tree = ViewTree<IntRing>::Make(q);
  ASSERT_TRUE(tree.ok());
  Rng rng(8);
  std::vector<std::pair<size_t, Tuple>> live;
  for (int step = 0; step < 20000; ++step) {
    if (!live.empty() && rng.Chance(0.4)) {
      size_t i = rng.Uniform(live.size());
      tree->UpdateAtom(live[i].first, live[i].second, -1);
      live[i] = live.back();
      live.pop_back();
    } else {
      size_t atom = rng.Uniform(4);
      Tuple t;
      for (size_t k = 0; k < q.atoms()[atom].schema.size(); ++k) {
        t.push_back(rng.UniformInt(0, 4));
      }
      tree->UpdateAtom(atom, t, 1);
      live.emplace_back(atom, t);
    }
    if (step % 4999 != 0) continue;
    std::vector<const Relation<IntRing>*> rels;
    for (size_t a = 0; a < 4; ++a) rels.push_back(&tree->AtomRelation(a));
    auto oracle = EvaluateQuery<IntRing>(q, rels);
    auto pos = ProjectionPositions(tree->OutputSchema(), q.free());
    size_t n = 0;
    for (ViewTreeEnumerator<IntRing> it(*tree); it.Valid(); it.Next()) {
      ASSERT_EQ(oracle.Payload(ProjectTuple(it.tuple(), pos)), it.payload());
      ++n;
    }
    ASSERT_EQ(n, oracle.size()) << step;
  }
}

TEST(StressTest, ParallelBatchEquivalenceLongHaul) {
  // The same random insert/delete stream, chopped into random-size batches,
  // applied three ways: per-tuple, sequential node-at-a-time, and
  // shard-parallel on 5 threads. Every view of all three trees must agree
  // after every batch; the oracle checks the output at sparse checkpoints.
  enum : Var { W = 3, X = 4, Y = 5, Z = 6 };
  Query q("deep", Schema{W, X, Y, Z},
          {Atom{"R", Schema{W, X}}, Atom{"S", Schema{W, X, Y}},
           Atom{"T", Schema{W, Z}}, Atom{"U", Schema{W}}});
  auto make = [&] {
    auto t = ViewTree<IntRing>::Make(q);
    EXPECT_TRUE(t.ok());
    return *std::move(t);
  };
  ViewTree<IntRing> per_tuple = make();
  ViewTree<IntRing> sequential = make();
  ViewTree<IntRing> parallel = make();
  parallel.SetThreads(5);
  Rng rng(9);
  std::vector<std::pair<size_t, Tuple>> live;
  for (int round = 0; round < 40; ++round) {
    std::vector<ViewTree<IntRing>::BatchEntry> batch;
    size_t size = rng.UniformInt(1, 400);
    for (size_t i = 0; i < size; ++i) {
      if (!live.empty() && rng.Chance(0.4)) {
        size_t j = rng.Uniform(live.size());
        batch.push_back({live[j].first, live[j].second, -1});
        live[j] = live.back();
        live.pop_back();
      } else {
        size_t atom = rng.Uniform(4);
        Tuple t;
        for (size_t k = 0; k < q.atoms()[atom].schema.size(); ++k) {
          t.push_back(rng.UniformInt(0, 4));
        }
        batch.push_back({atom, t, 1});
        live.emplace_back(atom, t);
      }
    }
    std::span<const ViewTree<IntRing>::BatchEntry> span(batch);
    per_tuple.ApplyBatchPerTuple(span);
    sequential.ApplyBatch(span);
    parallel.ApplyBatch(span);
    for (size_t n = 0; n < parallel.plan().nodes().size(); ++n) {
      int node = static_cast<int>(n);
      const auto& wp = parallel.NodeW(node);
      const auto& ws = sequential.NodeW(node);
      const auto& wt = per_tuple.NodeW(node);
      ASSERT_EQ(wp.size(), ws.size()) << "W of node " << n;
      ASSERT_EQ(wp.size(), wt.size()) << "W of node " << n;
      for (const auto& e : wp) {
        ASSERT_EQ(ws.Payload(e.key), e.value);
        ASSERT_EQ(wt.Payload(e.key), e.value);
      }
      const Relation<IntRing>& mp = parallel.NodeM(node);
      const Relation<IntRing>& ms = sequential.NodeM(node);
      ASSERT_EQ(mp.size(), ms.size()) << "M of node " << n;
      for (const auto& e : mp) ASSERT_EQ(ms.Payload(e.key), e.value);
    }
    if (round % 13 != 0) continue;
    std::vector<const Relation<IntRing>*> rels;
    for (size_t a = 0; a < 4; ++a) rels.push_back(&parallel.AtomRelation(a));
    auto oracle = EvaluateQuery<IntRing>(q, rels);
    auto pos = ProjectionPositions(parallel.OutputSchema(), q.free());
    size_t n = 0;
    for (ViewTreeEnumerator<IntRing> it(parallel); it.Valid(); it.Next()) {
      ASSERT_EQ(oracle.Payload(ProjectTuple(it.tuple(), pos)), it.payload());
      ++n;
    }
    ASSERT_EQ(n, oracle.size()) << round;
  }
}

/// True if `reply` is a limited ENUMERATE's: `OK rows=m` with m <= limit,
/// then exactly m row lines.
bool IsLimitedReply(const std::string& reply, size_t limit) {
  if (reply.rfind("OK rows=", 0) != 0) return false;
  const size_t m = std::stoul(reply.substr(8));
  return m <= limit &&
         static_cast<size_t>(std::count(reply.begin(), reply.end(), '\n')) == m;
}

// The long server soak: 32 concurrent clients interleaving batched
// updates, snapshot enumerations, stats probes, and abrupt mid-frame
// disconnects against one IvmServer; the final enumeration must equal a
// sequential shadow engine fed the same deltas (ring addition commutes,
// so every interleaving lands on the same state). The short tier-1
// variant lives in server_test.cc; this one runs under `ctest -L slow`
// (and under TSan in CI).
TEST(StressTest, ServerSoakThirtyTwoClients) {
  constexpr int kClients = 32;
  constexpr int kRounds = 40;
  constexpr int kPerRound = 8;
  const std::string sql =
      "CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
      "SELECT R.a, S.c, COUNT(*) FROM R, S WHERE R.b = S.b "
      "GROUP BY R.a, S.c;";

  serve::ServerOptions opts;
  opts.workers = 8;
  serve::IvmServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  {
    auto c = serve::Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    auto reg = c->Call("REGISTER " + sql);
    ASSERT_TRUE(reg.ok());
    ASSERT_EQ(*reg, "OK q0");
  }

  // Deterministic per-client streams; values collide across clients so the
  // join keeps churning.
  std::vector<std::vector<std::string>> lines(kClients);
  std::vector<std::vector<std::string>> batches(kClients);
  for (int i = 0; i < kClients; ++i) {
    uint64_t s = 0x2545f4914f6cdd1dull * static_cast<uint64_t>(i + 1);
    auto next = [&s]() {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return (s >> 33);
    };
    for (int r = 0; r < kRounds; ++r) {
      std::string body;
      for (int j = 0; j < kPerRound; ++j) {
        std::string line = std::string(next() % 4 != 0 ? "+" : "-") +
                           (next() % 2 == 0 ? "R " : "S ") +
                           std::to_string(next() % 9) + " " +
                           std::to_string(next() % 9);
        body += "\n" + line;
        lines[i].push_back(line);
      }
      batches[i].push_back("BATCH" + body);
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto c = serve::Client::Connect("127.0.0.1", server.port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      int round = 0;
      for (const std::string& batch : batches[i]) {
        auto reply = c->Call(batch);
        if (!reply.ok() || reply->rfind("OK", 0) != 0) {
          ++failures;
          return;
        }
        // Full and limited snapshot reads alternate.
        if (++round % 7 == i % 7) {
          if (round % 2 == 0) {
            auto rows = c->Call("ENUMERATE q0");
            if (!rows.ok() || rows->rfind("OK rows=", 0) != 0) ++failures;
          } else {
            auto rows = c->Call("ENUMERATE q0 5");
            if (!rows.ok() || !IsLimitedReply(*rows, 5)) ++failures;
          }
        }
        if (round % 13 == 0) {
          auto st = c->Call("STATS q0");
          if (!st.ok() || st->rfind("OK {", 0) != 0) ++failures;
        }
      }
      (void)c->Call("QUIT");
    });
  }
  // Vandals: abandon partial frames mid-soak; the accept loop must not
  // wedge and the registered state must not change.
  for (int v = 0; v < 4; ++v) {
    threads.emplace_back([&] {
      auto c = serve::Client::Connect("127.0.0.1", server.port());
      if (!c.ok()) return;
      char hdr[4] = {70, 0, 0, 0};
      (void)c->SendRaw(std::string_view(hdr, 4));
      (void)c->SendRaw("torn");
      c->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Sequential shadow over the identical SQL lowering.
  VarRegistry vars;
  auto compiled = sql::CompileSql(sql, &vars);
  ASSERT_TRUE(compiled.ok());
  auto vo = EnumerableOrderFor(compiled->query);
  ASSERT_TRUE(vo.ok());
  auto tree = ViewTree<IntRing>::Make(compiled->query, *std::move(vo));
  ASSERT_TRUE(tree.ok());
  ViewTreeEngine<IntRing> shadow(*std::move(tree));
  std::vector<Delta<IntRing>> deltas;
  for (const auto& client_lines : lines) {
    for (const std::string& line : client_lines) {
      std::istringstream in(line);
      std::string rel, a, b;
      in >> rel >> a >> b;
      deltas.push_back(Delta<IntRing>{rel.substr(1),
                                      Tuple{std::stoll(a), std::stoll(b)},
                                      rel[0] == '-' ? -1 : 1});
    }
  }
  shadow.ApplyBatch(deltas);
  std::vector<std::string> rows;
  shadow.Enumerate([&](const Tuple& t, const int64_t& p) {
    std::string row;
    for (Value v : t) row += std::to_string(v) + " ";
    row += "-> " + std::to_string(p);
    rows.push_back(std::move(row));
  });
  std::sort(rows.begin(), rows.end());
  std::string expect = "OK rows=" + std::to_string(rows.size());
  for (const std::string& r : rows) expect += "\n" + r;

  auto c = serve::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c.ok());
  auto final_rows = c->Call("ENUMERATE q0");
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(*final_rows, expect);
  server.Stop();
}

}  // namespace
}  // namespace incr
