// serve::Session is the one command interpreter: IvmServer's workers and
// the REPL both call Session::Execute. One script runs through a Session in
// process and through a loopback IvmServer, and every deterministic reply
// must be byte-identical — the transport adds framing, nothing else.
#include <gtest/gtest.h>

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
      const std::string a = v % 5 == 0 ? "k" + std::to_string(v % 37)
                                       : std::to_string(v * 13 % 500);
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
  if (obs::Enabled()) EXPECT_GT(evictions->Value(), evicted);
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
