// serve::Session is the one command interpreter: IvmServer's workers and
// the REPL both call Session::Execute. One script runs through a Session in
// process and through a loopback IvmServer, and every deterministic reply
// must be byte-identical — the transport adds framing, nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "incr/obs/metrics.h"
#include "incr/serve/client.h"
#include "incr/serve/server.h"
#include "incr/serve/session.h"

namespace incr {
namespace serve {
namespace {

// Covers REGISTER of each ring (COUNT, AVG, COVAR), UPDATE with both signs,
// a good BATCH and one with a malformed line, ENUMERATE with and without a
// limit, EXPLAIN, PING, an unknown command, bad q<N> tokens and QUIT (last:
// the server closes the connection after it).
const char* const kScript[] = {
    "PING",
    "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
    "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.a;",
    "REGISTER SELECT R.a, AVG(S.c) FROM R, S WHERE R.b = S.b GROUP BY R.a;",
    "REGISTER CREATE TABLE P (x, y); SELECT COVAR(P.x, P.y) FROM P;",
    "UPDATE R 1 2",
    "UPDATE +R alice 2",
    "UPDATE S 2 7 x3",
    "UPDATE R 9 9",
    "UPDATE -R 9 9",
    "UPDATE P 1 2",
    "BATCH\nR 3 2\n# a comment\n-S 2 7\nS 2 9\n\nP 3 4 x2",
    "BATCH\nR 5 2\nR\nS 2 1",
    "BATCH\nR 6 2\nR 4611686018427387904 2",
    "UPDATE R 1",
    "ENUMERATE q0",
    "ENUMERATE q0 1",
    "ENUMERATE q0 0",
    "ENUMERATE q1",
    "ENUMERATE q2",
    "EXPLAIN q0",
    "EXPLAIN q0 sideways",
    "ENUMERATE q0 -1",
    "FROB q0",
    "ENUMERATE q9",
    "ENUMERATE x0",
    "ENUMERATE q",
    "STATS q0x",
    "EXPLAIN",
    "ping",
    "QUIT",
};

std::vector<std::string> RunInProcess(std::vector<bool>* close_after) {
  Session session;
  std::vector<std::string> replies;
  for (const char* cmd : kScript) {
    bool close = false;
    replies.push_back(session.Execute(cmd, &close));
    close_after->push_back(close);
  }
  return replies;
}

TEST(SessionTest, InProcessRepliesEqualLoopbackServerReplies) {
  std::vector<bool> close_after;
  const std::vector<std::string> local = RunInProcess(&close_after);

  IvmServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<std::string> wire;
  for (const char* cmd : kScript) {
    auto reply = client->Call(cmd);
    ASSERT_TRUE(reply.ok()) << cmd << ": " << reply.status().ToString();
    wire.push_back(*reply);
  }
  // QUIT's reply was the connection's last frame.
  EXPECT_FALSE(client->Call("PING").ok());
  EXPECT_EQ(server.num_queries(), 3u);
  server.Stop();

  ASSERT_EQ(local.size(), wire.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(local[i], wire[i]) << "command: " << kScript[i];
    EXPECT_EQ(close_after[i], i + 1 == local.size()) << kScript[i];
  }

  // Pin the replies too, so the two paths cannot agree on a wrong answer.
  auto reply_to = [&](const std::string& cmd) {
    for (size_t i = 0; i < local.size(); ++i) {
      if (cmd == kScript[i]) return local[i];
    }
    ADD_FAILURE() << "not in the script: " << cmd;
    return std::string();
  };
  EXPECT_EQ(reply_to("PING"), "OK pong");
  EXPECT_EQ(reply_to("ping"), "OK pong");
  EXPECT_EQ(reply_to("UPDATE R 1 2"), "OK routed=2");
  EXPECT_EQ(reply_to("UPDATE P 1 2"), "OK routed=1");
  EXPECT_EQ(reply_to("BATCH\nR 3 2\n# a comment\n-S 2 7\nS 2 9\n\nP 3 4 x2"),
            "OK deltas=4 routed=3");
  EXPECT_EQ(reply_to("BATCH\nR 5 2\nR\nS 2 1").rfind("ERR line 3: ", 0), 0u);
  EXPECT_EQ(reply_to("BATCH\nR 6 2\nR 4611686018427387904 2")
                .rfind("ERR line 3: ", 0),
            0u);
  EXPECT_EQ(reply_to("UPDATE R 1").rfind("ERR arity mismatch", 0), 0u);
  // S(2, 7) x3 was retracted once; S(2, 9) added: S(2, .) holds 7 x2, 9.
  // The rejected batches left no trace.
  EXPECT_EQ(reply_to("ENUMERATE q0"), "OK rows=3\n1 -> 3\n3 -> 3\nalice -> 3");
  // A limit takes the first rows of the snapshot's enumeration order, and
  // rows= counts the rows returned.
  EXPECT_EQ(reply_to("ENUMERATE q0 1"), "OK rows=1\n1 -> 3");
  EXPECT_EQ(reply_to("ENUMERATE q0 0"), "OK rows=0");
  EXPECT_EQ(reply_to("ENUMERATE q1"),
            "OK rows=3\n1 -> count=3 sum=23\n3 -> count=3 sum=23\n"
            "alice -> count=3 sum=23");
  // (1, 2) + 2 x (3, 4): count 3, sums [7 10], products [19 26 26 36].
  EXPECT_EQ(reply_to("ENUMERATE q2"),
            "OK rows=1\n-> count=3 sum=[7 10] prod=[19 26 26 36]");
  EXPECT_EQ(reply_to("EXPLAIN q0").rfind("OK {", 0), 0u);
  EXPECT_EQ(reply_to("EXPLAIN q0 sideways"),
            "ERR usage: EXPLAIN q<N> [analyze]");
  EXPECT_EQ(reply_to("ENUMERATE q0 -1"), "ERR bad limit '-1'");
  EXPECT_EQ(reply_to("FROB q0").rfind("ERR unknown command 'FROB'", 0), 0u);
  EXPECT_EQ(reply_to("ENUMERATE q9"), "ERR no such query 'q9'");
  EXPECT_EQ(reply_to("ENUMERATE x0"), "ERR no such query 'x0'");
  EXPECT_EQ(reply_to("ENUMERATE q"), "ERR no such query 'q'");
  EXPECT_EQ(reply_to("STATS q0x"), "ERR no such query 'q0x'");
  EXPECT_EQ(reply_to("EXPLAIN"), "ERR no such query ''");
  EXPECT_EQ(reply_to("QUIT"), "OK bye");
}

/// Runs `script` through a fresh Session over `engine` and returns every
/// reply.
std::vector<std::string> RunScript(const std::vector<std::string>& script,
                                   EngineOptions engine) {
  Session session(std::move(engine));
  std::vector<std::string> replies;
  for (const std::string& cmd : script) {
    bool close = false;
    replies.push_back(session.Execute(cmd, &close));
  }
  return replies;
}

TEST(SessionTest, HeapAndPagedSessionsReplyIdentically) {
  // A limited ENUMERATE returns the first k rows of the snapshot's dense
  // order, which heap and paged storage share; a pool of four 512-byte
  // pages makes the paged run evict and re-read throughout.
  std::vector<std::string> script = {
      "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
      "SELECT R.a, R.b, COUNT(*) FROM R, S WHERE R.b = S.b "
      "GROUP BY R.a, R.b;",
      "REGISTER SELECT R.a, AVG(S.c) FROM R, S WHERE R.b = S.b GROUP BY R.a;",
      "REGISTER CREATE TABLE P (x, y); SELECT COVAR(P.x, P.y) FROM P;",
  };
  for (int round = 0; round < 4; ++round) {
    std::string batch = "BATCH";
    for (int i = 0; i < 120; ++i) {
      const int v = round * 120 + i;
      std::string a = v % 5 == 0 ? "k" : "";
      a += std::to_string(v % 5 == 0 ? v % 37 : v * 13 % 500);
      batch += "\nR " + a + " " + std::to_string(v % 17);
      batch += "\nS " + std::to_string(v % 17) + " " + std::to_string(v % 9);
      if (v % 3 == 0) batch += "\n-R " + a + " " + std::to_string(v % 17);
      batch += "\nP " + std::to_string(v % 11) + " " + std::to_string(v % 7);
    }
    script.push_back(batch);
    script.push_back("UPDATE -S " + std::to_string(round) + " 0");
    for (const char* read :
         {"ENUMERATE q0", "ENUMERATE q0 1", "ENUMERATE q0 7", "ENUMERATE q0 0",
          "ENUMERATE q1", "ENUMERATE q1 5", "ENUMERATE q2 0",
          "ENUMERATE q2 1"}) {
      script.push_back(read);
    }
  }
  const std::vector<std::string> heap = RunScript(script, EngineOptions{});
  EngineOptions paged;
  paged.storage.backend = StorageBackend::kPaged;
  paged.storage.spill_dir = ::testing::TempDir() + "session_paged";
  paged.storage.page_bytes = StorageOptions::kMinPageBytes;
  paged.storage.buffer_pool_bytes =
      StorageOptions::kMinPageBytes * StorageOptions::kMinFrames;
  obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter("pager.evictions");
  const uint64_t evicted = evictions->Value();
  const std::vector<std::string> pages = RunScript(script, paged);
  if (obs::Enabled()) {
    EXPECT_GT(evictions->Value(), evicted);
  }
  ASSERT_EQ(heap.size(), pages.size());
  for (size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i].rfind("OK", 0), 0u) << script[i] << ": " << heap[i];
    EXPECT_EQ(heap[i], pages[i]) << "command: " << script[i];
    // q0 has far more than 7 groups, so its limited reads are full.
    if (script[i] == "ENUMERATE q0 7") {
      EXPECT_EQ(heap[i].rfind("OK rows=7\n", 0), 0u) << heap[i];
    }
  }
}

/// The "count" of histogram `key` in a STATS reply, or -1 if it is absent.
int64_t HistCount(const std::string& stats, const std::string& key) {
  const std::string field = "\"" + key + "\":{\"count\":";
  const size_t pos = stats.find(field);
  if (pos == std::string::npos) return -1;
  return std::stoll(stats.substr(pos + field.size()));
}

TEST(SessionTest, StatsTimesTheMaintainLockWaitOfEveryApply) {
  // Metrics are process-global per query id, so count what this session
  // adds; a BATCH or UPDATE that routes nowhere near q0 applies nothing.
  Session session;
  bool close = false;
  auto run = [&](const std::string& cmd) {
    return session.Execute(cmd, &close);
  };
  ASSERT_EQ(run("REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
                "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY "
                "R.a;"),
            "OK q0");
  ASSERT_EQ(run("REGISTER CREATE TABLE P (x); SELECT COUNT(*) FROM P;"),
            "OK q1");
  const std::string before = run("STATS q0");
  const int64_t waits0 = HistCount(before, "lock_wait_ns");
  const int64_t updates0 = HistCount(before, "update_ns");
  ASSERT_GE(waits0, 0) << before;
  ASSERT_GE(updates0, 0) << before;
  EXPECT_EQ(run("UPDATE R 1 2"), "OK routed=1");
  EXPECT_EQ(run("BATCH\nR 3 2\nS 2 7\nP 4"), "OK deltas=3 routed=2");
  EXPECT_EQ(run("BATCH\nP 5\nP 6"), "OK deltas=2 routed=1");
  EXPECT_EQ(run("UPDATE -S 2 7"), "OK routed=1");
  const std::string after = run("STATS q0");
  EXPECT_EQ(HistCount(after, "lock_wait_ns") - waits0, 3) << after;
  EXPECT_EQ(HistCount(after, "update_ns") - updates0, 3) << after;
}

// Sharing: queries over one join and group-by are maintained by one tree.
constexpr const char* kCountRS =
    "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c, d); "
    "SELECT R.a, R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b;";
constexpr const char* kAvgRS =
    "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c, d); "
    "SELECT R.a, R.b, AVG(S.d) FROM R, S WHERE R.b = S.b GROUP BY R.a, R.b;";

/// BATCH `round` of a stream over R(a, b) and S(b, c, d) that only
/// retracts tuples it inserted before (multiplicities stay >= 0).
std::string SharingBatch(int round) {
  std::string batch = "BATCH";
  for (int i = 0; i < 40; ++i) {
    const int v = round * 40 + i;
    const std::string r = std::to_string(v * 7 % 13) + " " +
                          std::to_string(v % 5);
    const std::string s = std::to_string(v % 5) + " " +
                          std::to_string(v % 3) + " " +
                          std::to_string(v * 11 % 17);
    batch += "\nR " + r;
    batch += "\nS " + s;
    if (v % 4 == 1) batch += "\n-R " + r;
    if (v % 6 == 5) batch += "\n-S " + s;
  }
  return batch;
}

/// The reply lines after the "OK rows=<k>" header.
std::vector<std::string> Rows(const std::string& reply) {
  std::vector<std::string> rows;
  size_t pos = reply.find('\n');
  while (pos != std::string::npos) {
    const size_t next = reply.find('\n', pos + 1);
    rows.push_back(reply.substr(pos + 1, next == std::string::npos
                                             ? std::string::npos
                                             : next - pos - 1));
    pos = next;
  }
  return rows;
}

TEST(SessionTest, CountAndAvgOverOneJoinShareOneTreeInEitherOrder) {
  obs::Counter* batches =
      obs::MetricsRegistry::Global().GetCounter("viewtree.batches");
  for (const bool avg_first : {false, true}) {
    SCOPED_TRACE(avg_first ? "AVG first" : "COUNT first");
    Session shared, count_only, avg_only;
    bool close = false;
    ASSERT_EQ(shared.Execute(avg_first ? kAvgRS : kCountRS, &close), "OK q0");
    ASSERT_EQ(shared.Execute(avg_first ? kCountRS : kAvgRS, &close), "OK q1");
    ASSERT_EQ(count_only.Execute(kCountRS, &close), "OK q0");
    ASSERT_EQ(avg_only.Execute(kAvgRS, &close), "OK q0");
    EXPECT_EQ(shared.num_queries(), 2u);
    EXPECT_EQ(shared.num_trees(), 1u);
    const std::string count_id = avg_first ? "q1" : "q0";
    const std::string avg_id = avg_first ? "q0" : "q1";
    for (int round = 0; round < 4; ++round) {
      const std::string batch = SharingBatch(round);
      const uint64_t before = batches->Value();
      const std::string reply = shared.Execute(batch, &close);
      EXPECT_EQ(reply.substr(reply.find(" routed=")), " routed=2") << reply;
      // One tree, so one view-tree batch per BATCH, not one per query.
      if (obs::Enabled()) {
        EXPECT_EQ(batches->Value() - before, 1u);
      }
      count_only.Execute(batch, &close);
      avg_only.Execute(batch, &close);
      // The tree grew from empty, and on this stream even limited reads
      // (the first rows of its dense order) equal the unshared sessions'.
      // Not on every stream: a batch in which a COUNT delta cancels while
      // its sum does not can order the AvgRing views differently.
      for (const char* limit : {"", " 1", " 5"}) {
        EXPECT_EQ(shared.Execute("ENUMERATE " + count_id + limit, &close),
                  count_only.Execute(std::string("ENUMERATE q0") + limit,
                                     &close))
            << "round " << round << limit;
        EXPECT_EQ(shared.Execute("ENUMERATE " + avg_id + limit, &close),
                  avg_only.Execute(std::string("ENUMERATE q0") + limit,
                                   &close))
            << "round " << round << limit;
      }
    }
    EXPECT_EQ(shared.Execute("ENUMERATE " + count_id, &close)
                  .rfind("OK rows=", 0),
              0u);
    EXPECT_GT(Rows(shared.Execute("ENUMERATE " + count_id, &close)).size(),
              5u);
  }
}

TEST(SessionTest, WideningAfterDataMatchesUnsharedSessions) {
  Session shared, count_only, avg_only;
  bool close = false;
  ASSERT_EQ(shared.Execute(kCountRS, &close), "OK q0");
  ASSERT_EQ(count_only.Execute(kCountRS, &close), "OK q0");
  ASSERT_EQ(avg_only.Execute(kAvgRS, &close), "OK q0");
  auto feed = [&](int round, bool to_shared) {
    const std::string batch = SharingBatch(round);
    if (to_shared) shared.Execute(batch, &close);
    count_only.Execute(batch, &close);
    avg_only.Execute(batch, &close);
  };
  for (int round = 0; round < 3; ++round) feed(round, true);
  // AVG widens the COUNT tree: rebuilt in AvgRing from its live atoms.
  ASSERT_EQ(shared.Execute(kAvgRS, &close), "OK q1");
  EXPECT_EQ(shared.num_trees(), 1u);
  for (int round = 3; round < 6; ++round) {
    if (round > 3) feed(round, true);
    const std::string count_all = count_only.Execute("ENUMERATE q0", &close);
    const std::string avg_all = avg_only.Execute("ENUMERATE q0", &close);
    EXPECT_EQ(shared.Execute("ENUMERATE q0", &close), count_all);
    EXPECT_EQ(shared.Execute("ENUMERATE q1", &close), avg_all);
    // The rebuild laid the views out afresh, so a limited read may pick
    // other rows than the unshared tree's first ones: k of them, from the
    // full set, in byte order.
    for (const auto& [id, all] : {std::pair{"q0", count_all},
                                  std::pair{"q1", avg_all}}) {
      const std::vector<std::string> full = Rows(all);
      ASSERT_GT(full.size(), 7u);
      const std::string limited =
          shared.Execute(std::string("ENUMERATE ") + id + " 7", &close);
      EXPECT_EQ(limited.rfind("OK rows=7\n", 0), 0u) << limited;
      const std::vector<std::string> rows = Rows(limited);
      EXPECT_EQ(rows.size(), 7u);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
      for (const std::string& row : rows) {
        EXPECT_NE(std::find(full.begin(), full.end(), row), full.end())
            << id << ": " << row;
      }
    }
  }
}

TEST(SessionTest, ZRelationCancellationHidesTheSharedCountRow) {
  // +S 1 1 5 and -S 1 2 7 without prior inserts: the group a = 9, b = 1
  // has count 0 and sum -2. An IntRing COUNT tree drops it; the shared
  // AvgRing tree keeps it, and its COUNT reader must skip it, limited reads
  // included.
  Session shared, count_only;
  bool close = false;
  ASSERT_EQ(shared.Execute(kCountRS, &close), "OK q0");
  ASSERT_EQ(shared.Execute(kAvgRS, &close), "OK q1");
  ASSERT_EQ(count_only.Execute(kCountRS, &close), "OK q0");
  for (const char* cmd :
       {"UPDATE R 9 1", "BATCH\n+S 1 1 5\n-S 1 2 7", "UPDATE R 8 2",
        "UPDATE S 2 0 4"}) {
    shared.Execute(cmd, &close);
    count_only.Execute(cmd, &close);
  }
  // Rows list the tree's variable order, (b, a).
  EXPECT_EQ(count_only.Execute("ENUMERATE q0", &close), "OK rows=1\n2 8 -> 1");
  EXPECT_EQ(shared.Execute("ENUMERATE q0", &close), "OK rows=1\n2 8 -> 1");
  EXPECT_EQ(shared.Execute("ENUMERATE q0 1", &close), "OK rows=1\n2 8 -> 1");
  EXPECT_EQ(shared.Execute("ENUMERATE q1", &close),
            "OK rows=2\n1 9 -> count=0 sum=-2\n2 8 -> count=1 sum=4");
}

TEST(SessionTest, OtherJoinsSumsAndColumnsKeepTheirOwnTrees) {
  Session session;
  bool close = false;
  auto reg = [&](const std::string& sql) {
    return session.Execute("REGISTER " + sql, &close);
  };
  ASSERT_EQ(reg("CREATE TABLE R (a, b); CREATE TABLE S (b, c, d); "
                "SELECT R.a, R.b, COUNT(*) FROM R, S WHERE R.b = S.b "
                "GROUP BY R.a, R.b;"),
            "OK q0");
  EXPECT_EQ(session.num_trees(), 1u);
  // A different join.
  ASSERT_EQ(reg("SELECT R.a, COUNT(*) FROM R GROUP BY R.a;"), "OK q1");
  EXPECT_EQ(session.num_trees(), 2u);
  // SUM over the same join: an IntRing tree whose payload is not a count.
  ASSERT_EQ(reg("SELECT R.a, R.b, SUM(S.d) FROM R, S WHERE R.b = S.b "
                "GROUP BY R.a, R.b;"),
            "OK q2");
  EXPECT_EQ(session.num_trees(), 3u);
  // AVG(S.d) widens q0's tree; AVG(S.c) lifts another column.
  ASSERT_EQ(reg("SELECT R.a, R.b, AVG(S.d) FROM R, S WHERE R.b = S.b "
                "GROUP BY R.a, R.b;"),
            "OK q3");
  EXPECT_EQ(session.num_trees(), 3u);
  ASSERT_EQ(reg("SELECT R.a, R.b, AVG(S.c) FROM R, S WHERE R.b = S.b "
                "GROUP BY R.a, R.b;"),
            "OK q4");
  EXPECT_EQ(session.num_trees(), 4u);
  // A plain SELECT of the grouped columns reads a count, like q0.
  ASSERT_EQ(reg("SELECT R.a, R.b FROM R, S WHERE R.b = S.b;"), "OK q5");
  EXPECT_EQ(session.num_trees(), 4u);
  EXPECT_EQ(session.Execute("BATCH\nR 1 2\nS 2 3 10\nS 2 5 20", &close),
            "OK deltas=3 routed=6");
  // Rows over R, S list the tree's variable order, (b, a).
  EXPECT_EQ(session.Execute("ENUMERATE q0", &close), "OK rows=1\n2 1 -> 2");
  EXPECT_EQ(session.Execute("ENUMERATE q1", &close), "OK rows=1\n1 -> 1");
  EXPECT_EQ(session.Execute("ENUMERATE q2", &close), "OK rows=1\n2 1 -> 30");
  EXPECT_EQ(session.Execute("ENUMERATE q3", &close),
            "OK rows=1\n2 1 -> count=2 sum=30");
  EXPECT_EQ(session.Execute("ENUMERATE q4", &close),
            "OK rows=1\n2 1 -> count=2 sum=8");
  EXPECT_EQ(session.Execute("ENUMERATE q5", &close), "OK rows=1\n2 1 -> 2");
}

TEST(SessionTest, StatsUpdatesCountTheDeltasRoutedToEachQuery) {
  // Metrics are process-global per query id, so count what this session
  // adds. q0 and q1 share one tree; q2 has its own.
  Session session;
  bool close = false;
  ASSERT_EQ(session.Execute(kCountRS, &close), "OK q0");
  ASSERT_EQ(session.Execute(kAvgRS, &close), "OK q1");
  ASSERT_EQ(session.Execute(
                "REGISTER CREATE TABLE P (x); SELECT COUNT(*) FROM P;", &close),
            "OK q2");
  EXPECT_EQ(session.num_trees(), 2u);
  auto updates = [&](const char* id) {
    const std::string stats = session.Execute(std::string("STATS ") + id,
                                              &close);
    const std::string field = "\"updates\":";
    const size_t pos = stats.find(field);
    EXPECT_NE(pos, std::string::npos) << stats;
    return pos == std::string::npos
               ? int64_t{-1}
               : std::stoll(stats.substr(pos + field.size()));
  };
  const int64_t u0 = updates("q0"), u1 = updates("q1"), u2 = updates("q2");
  const int64_t w0 = HistCount(session.Execute("STATS q1", &close),
                               "lock_wait_ns");
  EXPECT_EQ(session.Execute("BATCH\nR 1 2\nS 2 3 4\nP 7\nR 5 2", &close),
            "OK deltas=4 routed=3");
  EXPECT_EQ(session.Execute("UPDATE P 8", &close), "OK routed=1");
  EXPECT_EQ(session.Execute("UPDATE -S 2 3 4", &close), "OK routed=2");
  EXPECT_EQ(updates("q0") - u0, 4);
  EXPECT_EQ(updates("q1") - u1, 4);
  EXPECT_EQ(updates("q2") - u2, 2);
  // Each apply of the shared tree is recorded once per query it serves.
  EXPECT_EQ(HistCount(session.Execute("STATS q1", &close), "lock_wait_ns") -
                w0,
            2);
}

TEST(SessionTest, ExplainRegimeFollowsTheRunningPlan) {
  // Hierarchical but not q-hierarchical: the canonical order would give
  // O(1) updates, but the session runs a free-first order, which enumerates
  // with O(1) delay and scans partially bound groups on updates. The
  // regime sentence must describe that plan, as the tree's flags do.
  Session session;
  bool close = false;
  ASSERT_EQ(session.Execute(
                "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b); "
                "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY "
                "R.a;",
                &close),
            "OK q0");
  const std::string json = session.Execute("EXPLAIN q0", &close);
  ASSERT_EQ(json.rfind("OK {", 0), 0u) << json;
  EXPECT_NE(json.find("\"q_hierarchical\": false"), std::string::npos);
  EXPECT_NE(json.find("\"o1_updates\": false, \"o1_delay\": true"),
            std::string::npos)
      << json;
  const size_t at = json.find("\"regime\": \"");
  ASSERT_NE(at, std::string::npos) << json;
  const std::string regime =
      json.substr(at, json.find('"', at + 11) - at);
  EXPECT_NE(regime.find("O(1)-delay enumeration"), std::string::npos)
      << regime;
  EXPECT_NE(regime.find("updates are not O(1)"), std::string::npos)
      << regime;
  EXPECT_EQ(regime.find("not constant-delay"), std::string::npos) << regime;
}

TEST(SessionTest, EmptyAndBlankCommandsAreErrors) {
  Session session;
  bool close = false;
  EXPECT_EQ(session.Execute("", &close), "ERR empty command");
  EXPECT_EQ(session.Execute(" \t\r\nPING", &close), "ERR empty command");
  EXPECT_FALSE(close);
}

TEST(SessionTest, ScriptEscapesBecomeNewlines) {
  EXPECT_EQ(UnescapeNewlines("BATCH\\nR 1 2\\nS 2 3"), "BATCH\nR 1 2\nS 2 3");
  EXPECT_EQ(UnescapeNewlines("no escapes"), "no escapes");
  EXPECT_EQ(UnescapeNewlines("trailing \\"), "trailing \\");
  EXPECT_EQ(UnescapeNewlines("\\t stays"), "\\t stays");
}

}  // namespace
}  // namespace serve
}  // namespace incr
