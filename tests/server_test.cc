// IvmServer end-to-end: every ring through the wire, stats/explain
// introspection, the two reply paths (a worker's own send, and the IO
// thread's flush for a slow reader), and the concurrency soak — many
// clients interleaving registrations, batched updates, and snapshot
// enumerations, with the final enumeration compared bit-for-bit against a
// sequential shadow engine fed the same deltas (ring addition commutes,
// so any cross-client interleaving must land on the same state). A longer
// 32-client variant lives in stress_test.cc (label: slow).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "incr/core/view_tree.h"
#include "incr/core/view_tree_plan.h"
#include "incr/engines/engine.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/serve/client.h"
#include "incr/serve/protocol.h"
#include "incr/serve/server.h"
#include "incr/sql/sql.h"

namespace incr {
namespace serve {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opts;
    opts.workers = 4;
    server_ = std::make_unique<IvmServer>(opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    auto c = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return *std::move(c);
  }

  std::string Call(Client& c, const std::string& cmd) {
    auto reply = c.Call(cmd);
    EXPECT_TRUE(reply.ok()) << cmd << ": " << reply.status().ToString();
    return reply.ok() ? *reply : "";
  }

  std::unique_ptr<IvmServer> server_;
};

TEST_F(ServerTest, CountQueryOverTheWire) {
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
                    "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b "
                    "GROUP BY R.a;"),
            "OK q0");
  EXPECT_EQ(Call(c, "UPDATE R 1 2"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE S 2 7"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE S 2 8"), "OK routed=1");
  EXPECT_EQ(Call(c, "ENUMERATE q0"), "OK rows=1\n1 -> 2");
  // Deletion: COUNT is maintained under Z, so rows can retract fully.
  EXPECT_EQ(Call(c, "UPDATE -R 1 2"), "OK routed=1");
  EXPECT_EQ(Call(c, "ENUMERATE q0"), "OK rows=0");
}

TEST_F(ServerTest, SumLiftsTheValueColumn) {
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE Sales (store, amount); "
                    "SELECT Sales.store, SUM(Sales.amount) FROM Sales "
                    "GROUP BY Sales.store;"),
            "OK q0");
  EXPECT_EQ(Call(c, "UPDATE Sales 1 100"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE Sales 1 250"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE Sales 2 40 x3"), "OK routed=1");
  EXPECT_EQ(Call(c, "ENUMERATE q0"), "OK rows=2\n1 -> 350\n2 -> 120");
}

TEST_F(ServerTest, AvgMaintainsCountAndSum) {
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE T (g, v); "
                    "SELECT T.g, AVG(T.v) FROM T GROUP BY T.g;"),
            "OK q0");
  EXPECT_EQ(Call(c, "UPDATE T 5 10"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE T 5 30"), "OK routed=1");
  EXPECT_EQ(Call(c, "ENUMERATE q0"), "OK rows=1\n5 -> count=2 sum=40");
}

TEST_F(ServerTest, CovarMaintainsTheMomentMatrix) {
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE P (x, y); "
                    "SELECT COVAR(P.x, P.y) FROM P;"),
            "OK q0");
  EXPECT_EQ(Call(c, "UPDATE P 1 2"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE P 3 4"), "OK routed=1");
  // count=2, sum=[4 6], prod=[1+9 2+12 2+12 4+16].
  EXPECT_EQ(Call(c, "ENUMERATE q0"),
            "OK rows=1\n-> count=2 sum=[4 6] prod=[10 14 14 20]");
}

TEST_F(ServerTest, UpdatesFanOutToEveryMatchingQuery) {
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE R (a, b); "
                    "SELECT R.a, COUNT(*) FROM R GROUP BY R.a;"),
            "OK q0");
  EXPECT_EQ(Call(c, "REGISTER SELECT SUM(R.b) FROM R;"), "OK q1");
  EXPECT_EQ(Call(c, "UPDATE R 1 9"), "OK routed=2");
  EXPECT_EQ(Call(c, "ENUMERATE q0"), "OK rows=1\n1 -> 1");
  EXPECT_EQ(Call(c, "ENUMERATE q1"), "OK rows=1\n-> 9");
  // A relation no query reads is accepted and routed nowhere.
  EXPECT_EQ(Call(c, "UPDATE Unrelated 1 2 3"), "OK routed=0");
}

TEST_F(ServerTest, StatsAndExplainExposeTheQuery) {
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE R (a, b); "
                    "SELECT R.a, COUNT(*) FROM R GROUP BY R.a;"),
            "OK q0");
  Call(c, "UPDATE R 1 2");
  Call(c, "ENUMERATE q0");
  std::string stats = Call(c, "STATS q0");
  EXPECT_EQ(stats.rfind("OK {", 0), 0u) << stats;
  EXPECT_NE(stats.find("\"updates\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"update_ns\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"enumerate_ns\""), std::string::npos) << stats;
  std::string explain = Call(c, "EXPLAIN q0");
  EXPECT_EQ(explain.rfind("OK {", 0), 0u) << explain;
  EXPECT_NE(explain.find("view-tree"), std::string::npos) << explain;
  std::string analyzed = Call(c, "EXPLAIN q0 analyze");
  EXPECT_EQ(analyzed.rfind("OK {", 0), 0u) << analyzed;
}

TEST_F(ServerTest, StringValuesInternConsistently) {
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE Emp (who, dept); "
                    "SELECT Emp.dept, COUNT(*) FROM Emp GROUP BY Emp.dept;"),
            "OK q0");
  EXPECT_EQ(Call(c, "UPDATE Emp alice eng"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE Emp bob eng"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE Emp carol sales"), "OK routed=1");
  EXPECT_EQ(Call(c, "ENUMERATE q0"), "OK rows=2\neng -> 2\nsales -> 1");
}

TEST_F(ServerTest, IntegerLiteralsNeverAliasInternedStrings) {
  // Strings are encoded as kStringCodeBase (2^62) + dictionary code, so
  // integer literals in that range (or past int64) must be refused:
  // otherwise 4611686018427387904 would silently mean the first interned
  // string. Everything below the base, such as 10-digit IDs and Unix
  // timestamps, stands for itself.
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE R (a, b); "
                    "SELECT R.a, COUNT(*) FROM R GROUP BY R.a;"),
            "OK q0");
  EXPECT_EQ(Call(c, "UPDATE R foo 1"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE R 1000000000 1"), "OK routed=1");
  EXPECT_EQ(Call(c, "UPDATE R 1700000000000 1"), "OK routed=1");
  EXPECT_EQ(Call(c, "ENUMERATE q0"),
            "OK rows=3\n1000000000 -> 1\n1700000000000 -> 1\nfoo -> 1");
  const std::string reserved = Call(c, "UPDATE R 4611686018427387904 1");
  EXPECT_EQ(reserved.rfind("ERR", 0), 0u) << reserved;
  EXPECT_NE(reserved.find("reserved"), std::string::npos) << reserved;
  const std::string overflow = Call(c, "UPDATE R 99999999999999999999 1");
  EXPECT_EQ(overflow.rfind("ERR", 0), 0u) << overflow;
  EXPECT_NE(overflow.find("out of range"), std::string::npos) << overflow;
  // A bad literal rejects the whole batch, before anything is applied.
  const std::string batch = Call(c, "BATCH\nR 7 1\nR 4611686018427387904 1");
  EXPECT_EQ(batch.rfind("ERR line 3", 0), 0u) << batch;
  EXPECT_EQ(Call(c, "ENUMERATE q0"),
            "OK rows=3\n1000000000 -> 1\n1700000000000 -> 1\nfoo -> 1");
  // The largest plain integer still stands for itself.
  EXPECT_EQ(Call(c, "UPDATE R 4611686018427387903 1"), "OK routed=1");
  EXPECT_EQ(Call(c, "ENUMERATE q0"),
            "OK rows=4\n1000000000 -> 1\n1700000000000 -> 1\n"
            "4611686018427387903 -> 1\nfoo -> 1");
}

/// A reply's header line followed by its row lines.
std::vector<std::string> ReplyLines(const std::string& reply) {
  std::vector<std::string> lines;
  std::istringstream in(reply);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// True if `reply` is a limited ENUMERATE's: `OK rows=m` with m <= limit,
/// then exactly m row lines.
bool IsLimitedReply(const std::string& reply, size_t limit) {
  if (reply.rfind("OK rows=", 0) != 0) return false;
  const size_t m = std::stoul(reply.substr(8));
  return m <= limit &&
         static_cast<size_t>(std::count(reply.begin(), reply.end(), '\n')) == m;
}

/// Checks `ENUMERATE <q> k`, for k around both ends, against the unlimited
/// `ENUMERATE <q>` of the same epoch (no writes run in between). The reply
/// is `OK rows=min(k, n)` plus that many distinct rows of the full list in
/// std::string byte order; a smaller limit's rows are a subset of a larger
/// one's; a repeated read is byte-identical; and k >= n is the full reply.
/// Also checks the full list is sorted. Returns n.
size_t ExpectLimitsAreSortedSubsetsOfFullList(Client& c, const std::string& q) {
  auto full = c.Call("ENUMERATE " + q);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!full.ok()) return 0;
  const std::vector<std::string> lines = ReplyLines(*full);
  const size_t n = lines.size() - 1;
  EXPECT_EQ(lines[0], "OK rows=" + std::to_string(n));
  EXPECT_TRUE(std::is_sorted(lines.begin() + 1, lines.end()));
  const std::set<std::string> all(lines.begin() + 1, lines.end());
  EXPECT_EQ(all.size(), n);
  std::set<std::string> smaller;  // the previous (smaller) limit's rows
  for (size_t k : {size_t{0}, size_t{1}, size_t{7}, n - 1, n, n + 5}) {
    const std::string cmd = "ENUMERATE " + q + " " + std::to_string(k);
    auto got = c.Call(cmd);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) return n;
    const std::vector<std::string> rows = ReplyLines(*got);
    const size_t m = std::min(k, n);
    EXPECT_EQ(rows[0], "OK rows=" + std::to_string(m)) << cmd;
    EXPECT_EQ(rows.size(), m + 1) << cmd;
    EXPECT_TRUE(std::is_sorted(rows.begin() + 1, rows.end())) << cmd;
    const std::set<std::string> mine(rows.begin() + 1, rows.end());
    EXPECT_EQ(mine.size(), rows.size() - 1) << cmd << ": repeated rows";
    EXPECT_TRUE(std::includes(all.begin(), all.end(), mine.begin(),
                              mine.end()))
        << cmd << ": a row not in the full list";
    EXPECT_TRUE(std::includes(mine.begin(), mine.end(), smaller.begin(),
                              smaller.end()))
        << cmd << ": misses a row of a smaller limit";
    auto again = c.Call(cmd);
    EXPECT_TRUE(again.ok() && *again == *got) << cmd << " read twice";
    if (k >= n) {
      EXPECT_EQ(*got, *full) << cmd;
    }
    smaller = mine;
  }
  return n;
}

TEST_F(ServerTest, LimitedEnumerateIsASortedSubsetOfTheFullList) {
  // Group keys mix interned strings with integers of 1 to 4 digits (and a
  // few negatives), so byte order differs from numeric order ("10" < "9").
  Client c = Connect();
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
                    "SELECT R.a, R.b, COUNT(*) FROM R, S WHERE R.b = S.b "
                    "GROUP BY R.a, R.b;"),
            "OK q0");
  EXPECT_EQ(Call(c, "REGISTER SELECT R.a, R.b, AVG(S.c) FROM R, S "
                    "WHERE R.b = S.b GROUP BY R.a, R.b;"),
            "OK q1");
  EXPECT_EQ(Call(c, "REGISTER CREATE TABLE P (x, y); "
                    "SELECT COVAR(P.x, P.y) FROM P;"),
            "OK q2");
  std::string batch = "BATCH";
  constexpr int kRows = 330, kKeysB = 23;
  for (int i = 0; i < kRows; ++i) {
    const std::string a = i % 3 == 0   ? "name" + std::to_string(i % 41)
                          : i % 7 == 0 ? std::to_string(-i)
                                       : std::to_string(i * 37 % 2000);
    batch += "\nR " + a + " " + std::to_string(i % kKeysB);
  }
  for (int b = 0; b < kKeysB; ++b) {
    for (int j = 0; j <= b % 4; ++j) {
      batch += "\nS " + std::to_string(b) + " " + std::to_string(b * 10 + j);
    }
  }
  batch += "\nP 1 2\nP 3 4";
  EXPECT_EQ(Call(c, batch).rfind("OK deltas=", 0), 0u);
  EXPECT_GE(ExpectLimitsAreSortedSubsetsOfFullList(c, "q0"), 300u);  // Int
  EXPECT_GE(ExpectLimitsAreSortedSubsetsOfFullList(c, "q1"), 300u);  // Avg
  // A scalar view has one row; a zero limit drops it.
  const std::string covar =
      "OK rows=1\n-> count=2 sum=[4 6] prod=[10 14 14 20]";
  EXPECT_EQ(Call(c, "ENUMERATE q2"), covar);
  EXPECT_EQ(Call(c, "ENUMERATE q2 1"), covar);
  EXPECT_EQ(Call(c, "ENUMERATE q2 0"), "OK rows=0");
}

TEST_F(ServerTest, RegisterRejectsBadSqlWithPreciseError) {
  Client c = Connect();
  auto reply = Call(c, "REGISTER SELECT * FROM R;");
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  EXPECT_NE(reply.find("parse error at line"), std::string::npos) << reply;
  EXPECT_EQ(server_->num_queries(), 0u);
}

// ---- Reply paths: direct from the worker, or via the IO thread ----------

uint64_t RepliesDeferred() {
  return obs::MetricsRegistry::Global()
      .GetCounter("server.replies_deferred")
      ->Value();
}

std::string Framed(const std::vector<std::string>& cmds) {
  std::string wire;
  for (const std::string& cmd : cmds) AppendFrame(cmd, &wire);
  return wire;
}

constexpr const char* kPipelineSql =
    "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
    "SELECT R.a, S.c, COUNT(*) FROM R, S WHERE R.b = S.b "
    "GROUP BY R.a, S.c;";

// Many frames in one write: the replies come back in order, each
// byte-identical to the reply the same command gets when sent alone, and
// a client that keeps up gets every reply straight from its worker.
TEST_F(ServerTest, PipelinedFramesReplyInOrderLikeSingleCalls) {
  const std::vector<std::string> cmds = {
      "UPDATE R 1 2",   "UPDATE S 2 7",  "PING",
      "BATCH\nR 3 2\nS 2 8 x2\n-R 1 2\nR 5 4\nS 4 9",
      "ENUMERATE q0",   "UPDATE +R 1 2", "ENUMERATE q0 2",
      "UPDATE -S 2 7",  "ENUMERATE q0",  "PING"};
  // The reference: a second server, one round trip per command.
  std::vector<std::string> alone;
  {
    ServerOptions opts;
    opts.workers = 4;
    IvmServer ref(opts);
    ASSERT_TRUE(ref.Start().ok());
    auto c = Client::Connect("127.0.0.1", ref.port());
    ASSERT_TRUE(c.ok());
    ASSERT_EQ(*c->Call(kPipelineSql), "OK q0");
    for (const std::string& cmd : cmds) alone.push_back(*c->Call(cmd));
  }
  Client c = Connect();
  ASSERT_EQ(Call(c, kPipelineSql), "OK q0");
  const uint64_t deferred = RepliesDeferred();
  ASSERT_TRUE(c.SendRaw(Framed(cmds)).ok());
  for (size_t i = 0; i < cmds.size(); ++i) {
    auto reply = c.Recv();
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    EXPECT_EQ(*reply, alone[i]) << cmds[i];
  }
  EXPECT_EQ(RepliesDeferred(), deferred);
}

// QUIT's reply is the connection's last frame: commands behind it never
// run, and they must not keep the server from closing the connection.
TEST_F(ServerTest, CommandsBehindQuitNeitherRunNorHoldTheConnection) {
  Client c = Connect();
  timeval timeout{};
  timeout.tv_sec = 5;  // a connection left open fails instead of hanging
  ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ASSERT_TRUE(c.SendRaw(Framed({"PING", "QUIT", "PING"})).ok());
  auto pong = c.Recv();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "OK pong");
  auto bye = c.Recv();
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_EQ(*bye, "OK bye");
  auto eof = c.Recv();
  ASSERT_FALSE(eof.ok()) << "a command behind QUIT ran: " << *eof;
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound)
      << eof.status().ToString();
}

// A reader that sends many large reads and reads nothing back until the
// server has executed them all: the replies outgrow the socket buffers, so
// the workers leave them to the IO thread's POLLOUT flush, which must still
// deliver every reply complete and in order, QUIT's last.
TEST_F(ServerTest, SlowReaderGetsEveryReplyThroughTheIoThread) {
  constexpr int kRows = 20000;
  constexpr int kReads = 48;
  Client c = Connect();
  ASSERT_EQ(Call(c, "REGISTER CREATE TABLE R (a, b); "
                    "SELECT R.a, R.b, COUNT(*) FROM R GROUP BY R.a, R.b;"),
            "OK q0");
  std::string batch = "BATCH";
  for (int i = 0; i < kRows; ++i) {
    const std::string v = std::to_string(100000 + i);
    batch += "\nR " + v + " " + v;
  }
  ASSERT_EQ(Call(c, batch),
            "OK deltas=" + std::to_string(kRows) + " routed=1");
  const std::string alone = Call(c, "ENUMERATE q0");
  ASSERT_EQ(alone.rfind("OK rows=" + std::to_string(kRows), 0), 0u);
  // Replies total about 18 MiB: several times the socket buffers, even
  // at their autotuned maximum. A small receive buffer pins the client's
  // share.
  int rcvbuf = 64 << 10;
  ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);

  obs::Histogram* enum_ns =
      obs::MetricsRegistry::Global().GetHistogram("server.q0.enum_ns");
  const uint64_t enums = enum_ns->Stats().count;
  const uint64_t deferred = RepliesDeferred();
  std::vector<std::string> cmds(kReads, "ENUMERATE q0");
  cmds.push_back("QUIT");
  ASSERT_TRUE(c.SendRaw(Framed(cmds)).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (enum_ns->Stats().count < enums + kReads &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(enum_ns->Stats().count, enums + kReads);
  for (int i = 0; i < kReads; ++i) {
    auto reply = c.Recv();
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    ASSERT_EQ(*reply, alone) << "read " << i;
  }
  auto bye = c.Recv();
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_EQ(*bye, "OK bye");
  auto eof = c.Recv();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  EXPECT_GT(RepliesDeferred(), deferred);
}

// ---- The concurrency soak -----------------------------------------------

/// One client's deterministic delta stream (tiny LCG; values collide
/// across clients so the join keeps churning).
std::vector<std::string> ClientDeltas(int client, int rounds,
                                      int per_round,
                                      std::vector<std::string>* all_lines) {
  uint64_t s = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(client + 1);
  auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return (s >> 33);
  };
  std::vector<std::string> batches;
  for (int r = 0; r < rounds; ++r) {
    std::string body;
    for (int i = 0; i < per_round; ++i) {
      bool insert = next() % 4 != 0;  // net growth, occasional deletes
      std::string line = std::string(insert ? "+" : "-") +
                         (next() % 2 == 0 ? "R " : "S ") +
                         std::to_string(next() % 7) + " " +
                         std::to_string(next() % 7);
      body += "\n" + line;
      all_lines->push_back(line);
    }
    batches.push_back("BATCH" + body);
  }
  return batches;
}

/// The shadow: the same SQL compiled the same way, fed every client's
/// deltas sequentially, rendered exactly like ENUMERATE renders.
std::string ShadowRows(const std::string& sql,
                       const std::vector<std::string>& lines) {
  VarRegistry vars;
  auto compiled = sql::CompileSql(sql, &vars);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto vo = EnumerableOrderFor(compiled->query);
  EXPECT_TRUE(vo.ok());
  auto tree = ViewTree<IntRing>::Make(compiled->query, *std::move(vo));
  EXPECT_TRUE(tree.ok());
  ViewTreeEngine<IntRing> engine(*std::move(tree));
  std::vector<Delta<IntRing>> deltas;
  for (const std::string& line : lines) {
    std::istringstream in(line);
    std::string rel, a, b;
    in >> rel >> a >> b;
    int64_t sign = rel[0] == '-' ? -1 : 1;
    deltas.push_back(Delta<IntRing>{rel.substr(1),
                                    Tuple{std::stoll(a), std::stoll(b)},
                                    sign});
  }
  engine.ApplyBatch(deltas);
  std::vector<std::string> rows;
  engine.Enumerate([&](const Tuple& t, const int64_t& p) {
    std::string row;
    for (Value v : t) row += std::to_string(v) + " ";
    row += "-> " + std::to_string(p);
    rows.push_back(std::move(row));
  });
  std::sort(rows.begin(), rows.end());
  std::string out = "OK rows=" + std::to_string(rows.size());
  for (const std::string& r : rows) out += "\n" + r;
  return out;
}

constexpr const char* kSoakSql =
    "CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
    "SELECT R.a, S.c, COUNT(*) FROM R, S WHERE R.b = S.b "
    "GROUP BY R.a, S.c;";

TEST_F(ServerTest, ConcurrentClientsMatchSequentialShadow) {
  constexpr int kClients = 8;
  constexpr int kRounds = 25;
  constexpr int kPerRound = 6;
  {
    Client c = Connect();
    ASSERT_EQ(Call(c, std::string("REGISTER ") + kSoakSql), "OK q0");
  }
  std::vector<std::vector<std::string>> lines_per_client(kClients);
  std::vector<std::vector<std::string>> batches(kClients);
  for (int i = 0; i < kClients; ++i) {
    batches[i] =
        ClientDeltas(i, kRounds, kPerRound, &lines_per_client[i]);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto c = Client::Connect("127.0.0.1", server_->port());
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
        // Interleave snapshot reads, full and limited, and stats with the
        // writes.
        if (++round % 5 == i % 5) {
          if (round % 2 == 0) {
            auto rows = c->Call("ENUMERATE q0");
            if (!rows.ok() || rows->rfind("OK rows=", 0) != 0) ++failures;
          } else {
            auto rows = c->Call("ENUMERATE q0 5");
            if (!rows.ok() || !IsLimitedReply(*rows, 5)) ++failures;
          }
        }
        if (round % 11 == 0) {
          auto st = c->Call("STATS q0");
          if (!st.ok() || st->rfind("OK {", 0) != 0) ++failures;
          // EXPLAIN analyze reads the maintainer's live state: it must
          // serialize with the other clients' writes.
          auto ex = c->Call("EXPLAIN q0 analyze");
          if (!ex.ok() || ex->rfind("OK {", 0) != 0) ++failures;
        }
      }
      (void)c->Call("QUIT");
    });
  }
  // Two vandals abandon partial frames mid-soak; they must cost nothing.
  for (int v = 0; v < 2; ++v) {
    threads.emplace_back([&] {
      auto c = Client::Connect("127.0.0.1", server_->port());
      if (!c.ok()) return;
      char hdr[4] = {50, 0, 0, 0};
      (void)c->SendRaw(std::string_view(hdr, 4));
      (void)c->SendRaw("partial");
      c->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::vector<std::string> all_lines;
  for (const auto& lines : lines_per_client) {
    all_lines.insert(all_lines.end(), lines.begin(), lines.end());
  }
  Client c = Connect();
  EXPECT_EQ(Call(c, "ENUMERATE q0"), ShadowRows(kSoakSql, all_lines));
}

}  // namespace
}  // namespace serve
}  // namespace incr
