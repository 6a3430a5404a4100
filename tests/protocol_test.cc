// Wire-protocol units and fault injection: the frame decoder against
// byte-dribbled, torn, oversized, and garbage input, and a live server
// against the same abuse — every violation must produce a per-connection
// error (or a silent drop for torn frames) while the accept loop keeps
// serving other clients. The torn-tail discipline of wal_test.cc applied
// to a socket.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "incr/serve/client.h"
#include "incr/serve/protocol.h"
#include "incr/serve/server.h"

namespace incr {
namespace serve {
namespace {

std::string Frame(std::string_view payload) {
  std::string out;
  AppendFrame(payload, &out);
  return out;
}

TEST(FrameDecoderTest, RoundTripsFramesFedByteByByte) {
  FrameDecoder dec;
  std::string wire = Frame("REGISTER x") + Frame("") + Frame("PING");
  std::vector<std::string> got;
  for (char c : wire) {
    dec.Feed(&c, 1);
    while (auto f = dec.Pop()) got.push_back(*f);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "REGISTER x");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], "PING");
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_TRUE(dec.Error().ok());
}

TEST(FrameDecoderTest, PartialFrameStarvesWithoutError) {
  FrameDecoder dec;
  std::string wire = Frame("hello");
  dec.Feed(wire.data(), wire.size() - 2);  // torn mid-payload
  EXPECT_FALSE(dec.Pop().has_value());
  EXPECT_TRUE(dec.Error().ok());  // torn is starvation, not poison
  dec.Feed(wire.data() + wire.size() - 2, 2);
  auto f = dec.Pop();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, "hello");
}

TEST(FrameDecoderTest, OversizedLengthPoisonsForever) {
  FrameDecoder dec(/*max_frame_bytes=*/64);
  char hdr[4] = {0, 0, 1, 0};  // 65536 bytes claimed
  dec.Feed(hdr, 4);
  EXPECT_FALSE(dec.Pop().has_value());
  EXPECT_FALSE(dec.Error().ok());
  EXPECT_NE(dec.Error().message().find("exceeds"), std::string::npos);
  // Poisoned: even a valid frame afterwards is dropped, and the buffer
  // never grows toward the claimed length.
  std::string wire = Frame("ok");
  dec.Feed(wire.data(), wire.size());
  EXPECT_FALSE(dec.Pop().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameIoTest, WriteThenReadOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], "payload bytes").ok());
  auto got = ReadFrame(fds[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "payload bytes");
  // Clean EOF at a frame boundary is NotFound.
  ::close(fds[1]);
  auto eof = ReadFrame(fds[0]);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[0]);
}

TEST(FrameIoTest, TornEofMidFrameIsAnError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string wire = Frame("0123456789");
  ASSERT_EQ(::write(fds[1], wire.data(), wire.size() - 4),
            static_cast<ssize_t>(wire.size() - 4));
  ::close(fds[1]);
  auto got = ReadFrame(fds[0]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  EXPECT_NE(got.status().message().find("torn"), std::string::npos);
  ::close(fds[0]);
}

class ServerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opts;
    opts.workers = 2;
    server_ = std::make_unique<IvmServer>(opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    auto c = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return *std::move(c);
  }

  // The liveness probe: the accept loop must serve a fresh client no
  // matter what the previous one did to its own connection.
  void ExpectServerAlive() {
    Client probe = Connect();
    auto pong = probe.Call("PING");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(*pong, "OK pong");
  }

  std::unique_ptr<IvmServer> server_;
};

TEST_F(ServerFaultTest, OversizedFrameGetsErrorReplyThenClose) {
  Client c = Connect();
  // Claim 512 MiB; the server must reply ERR without allocating it.
  char hdr[4] = {0, 0, 0, 0x20};
  ASSERT_TRUE(c.SendRaw(std::string_view(hdr, 4)).ok());
  auto reply = c.Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rfind("ERR", 0), 0u) << *reply;
  EXPECT_NE(reply->find("exceeds"), std::string::npos) << *reply;
  // The connection is then closed from the server side.
  auto after = c.Recv();
  EXPECT_FALSE(after.ok());
  ExpectServerAlive();
}

// A framing violation that lands while a worker executes the
// connection's command must not overtake that command's reply: the client
// reads the reply then the ERR, or (the bad header arrived before the
// command started) the ERR alone — never an ERR followed by a reply. The
// sleeps sweep the header's arrival across the BATCH's execution.
TEST_F(ServerFaultTest, PoisonErrNeverOvertakesAnInFlightReply) {
  {
    // The BATCH feeds q1 only: per-query metrics (server.q<id>.*) are
    // process-wide, and a test later in this binary counts q0's updates.
    Client setup = Connect();
    auto reg = setup.Call("REGISTER CREATE TABLE T (x); "
                          "SELECT T.x, COUNT(*) FROM T GROUP BY T.x;");
    ASSERT_TRUE(reg.ok() && *reg == "OK q0") << reg.status().ToString();
    reg = setup.Call(
        "REGISTER CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
        "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.a;");
    ASSERT_TRUE(reg.ok() && *reg == "OK q1") << reg.status().ToString();
  }
  constexpr int kDeltas = 4000;
  std::string batch = "BATCH";
  for (int i = 0; i < kDeltas; ++i) {
    batch += i % 2 == 0 ? "\nR " + std::to_string(i) + " " +
                              std::to_string(i % 50)
                        : "\nS " + std::to_string(i % 50) + " " +
                              std::to_string(i);
  }
  const std::string ok_reply =
      "OK deltas=" + std::to_string(kDeltas) + " routed=1";
  for (int sleep_us : {0, 100, 500, 1000, 2000, 4000, 8000}) {
    Client c = Connect();
    ASSERT_TRUE(c.Send(batch).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    char hdr[4] = {0, 0, 0, 0x20};  // claims 512 MiB
    ASSERT_TRUE(c.SendRaw(std::string_view(hdr, 4)).ok());
    std::vector<std::string> frames;
    for (;;) {
      auto frame = c.Recv();
      if (!frame.ok()) {
        EXPECT_EQ(frame.status().code(), StatusCode::kNotFound)
            << "sleep " << sleep_us << "us: " << frame.status().ToString();
        break;
      }
      frames.push_back(*std::move(frame));
    }
    ASSERT_FALSE(frames.empty()) << "sleep " << sleep_us << "us";
    ASSERT_LE(frames.size(), 2u) << "sleep " << sleep_us << "us";
    EXPECT_EQ(frames.back().rfind("ERR", 0), 0u)
        << "sleep " << sleep_us << "us: last frame " << frames.back();
    EXPECT_NE(frames.back().find("exceeds"), std::string::npos);
    if (frames.size() == 2) {
      EXPECT_EQ(frames[0], ok_reply);
    }
  }
  ExpectServerAlive();
}

TEST_F(ServerFaultTest, TornFrameDropsConnectionNotServer) {
  for (int i = 0; i < 5; ++i) {
    Client c = Connect();
    // Header claims 100 bytes, connection dies after 3.
    char hdr[4] = {100, 0, 0, 0};
    ASSERT_TRUE(c.SendRaw(std::string_view(hdr, 4)).ok());
    ASSERT_TRUE(c.SendRaw("abc").ok());
    c.Close();
  }
  ExpectServerAlive();
}

TEST_F(ServerFaultTest, GarbageCommandKeepsConnectionUsable) {
  Client c = Connect();
  auto garbage = c.Call("\x01\x02 total nonsense \xff");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->rfind("ERR", 0), 0u) << *garbage;
  auto empty = c.Call("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "ERR empty command");
  // Same connection still serves real commands.
  auto pong = c.Call("PING");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "OK pong");
}

TEST_F(ServerFaultTest, MalformedBatchAppliesNothing) {
  Client c = Connect();
  auto reg = c.Call(
      "REGISTER CREATE TABLE R (a, b); "
      "SELECT R.a, COUNT(*) FROM R GROUP BY R.a;");
  ASSERT_TRUE(reg.ok());
  ASSERT_EQ(*reg, "OK q0");
  // Line 3 is malformed: the whole batch must be rejected atomically.
  auto bad = c.Call("BATCH\nR 1 2\nR\nR 3 4");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->rfind("ERR line 3", 0), 0u) << *bad;
  auto rows = c.Call("ENUMERATE q0");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, "OK rows=0");
}

TEST_F(ServerFaultTest, QuitClosesAfterReply) {
  Client c = Connect();
  auto bye = c.Call("QUIT");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK bye");
  auto after = c.Recv();
  EXPECT_FALSE(after.ok());
  ExpectServerAlive();
}

}  // namespace
}  // namespace serve
}  // namespace incr
