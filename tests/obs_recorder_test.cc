// Flight-recorder tests (src/incr/obs/recorder.h), separate from
// obs_test.cc because that file replaces global operator new for its
// allocation-counting checks. The ObsRecorder* suite names match the TSan
// CI job's -R filter: ConcurrentAppendAndDump and ConcurrentSpansAndExport
// are the race-detection workloads — writers hammer the rings while the
// main thread dumps or exports.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/obs/metrics.h"
#include "incr/obs/recorder.h"
#include "incr/ring/int_ring.h"

namespace incr::obs {
namespace {

struct EnabledGuard {
  bool was = Enabled();
  ~EnabledGuard() { SetEnabled(was); }
};

// Every dump line after the header is "<ts> tid=<tid> <kind> a=<a> b=<b>"
// with a known kind name, and span events carry their span's name after
// the kind. Returns the number of event lines.
size_t LintDump(const std::string& dump) {
  std::istringstream in(dump);
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("flight-recorder:", 0), 0u) << line;
  size_t events = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    uint64_t ts = 0;
    std::string tid, kind, span, a, b;
    EXPECT_TRUE(fields >> ts >> tid >> kind) << line;
    if (kind.rfind("span-", 0) == 0) {
      EXPECT_TRUE(fields >> span) << line;
      EXPECT_NE(span, "unknown") << line;
    }
    EXPECT_TRUE(fields >> a >> b) << line;
    EXPECT_EQ(tid.rfind("tid=", 0), 0u) << line;
    EXPECT_EQ(a.rfind("a=", 0), 0u) << line;
    EXPECT_EQ(b.rfind("b=", 0), 0u) << line;
    EXPECT_NE(kind, "unknown") << line;
    ++events;
  }
  return events;
}

TEST(ObsRecorderTest, ConcurrentAppendAndDump) {
  if (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  SetEnabled(true);
  ResetRecorder();

  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 20000;
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kEventsPerWriter; ++i) {
        RecordEvent(EventKind::kEpochPublish, static_cast<uint64_t>(w),
                    static_cast<uint64_t>(i));
        RecordEvent(EventKind::kWalFlush, static_cast<uint64_t>(w),
                    static_cast<uint64_t>(i));
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  const uint64_t before = RecorderEventCount();
  go.store(true, std::memory_order_release);
  // Dump repeatedly while the writers are still appending: this is the
  // path the fatal hook exercises, and what TSan must find clean.
  while (done.load(std::memory_order_acquire) < kWriters) {
    const std::string dump = DumpRecorderText(32);
    EXPECT_LE(LintDump(dump), 32u);
  }
  for (auto& t : writers) t.join();

  EXPECT_GE(RecorderEventCount(),
            before + uint64_t{kWriters} * kEventsPerWriter * 2);
  // Post-join dump is stable and capped at max_events.
  EXPECT_EQ(LintDump(DumpRecorderText(64)), 64u);
  EXPECT_LE(LintDump(DumpRecorderText(10000)),
            uint64_t{kWriters + 1} * kRingEvents);
}

TEST(ObsRecorderTest, KillSwitchDropsEvents) {
  EnabledGuard guard;
  SetEnabled(false);
  const uint64_t before = RecorderEventCount();
  for (int i = 0; i < 100; ++i) RecordEvent(EventKind::kEpochPublish, 1);
  EXPECT_EQ(RecorderEventCount(), before);
}

TEST(ObsRecorderTest, DumpToFileWritesParsableTail) {
  if (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  SetEnabled(true);
  ResetRecorder();
  for (int i = 0; i < 10; ++i)
    RecordEvent(EventKind::kWalFlush, static_cast<uint64_t>(i), 2);

  const std::string path = ::testing::TempDir() + "/recorder_tail.txt";
  ASSERT_TRUE(DumpRecorderToFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_GE(LintDump(buf.str()), 10u);
  EXPECT_NE(buf.str().find("wal-flush"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(DumpRecorderToFile("/nonexistent-dir/recorder_tail.txt"));

  ResetRecorder();
  EXPECT_EQ(LintDump(DumpRecorderText()), 0u);
}

TEST(ObsRecorderTest, EventKindNamesAreStable) {
  EXPECT_STREQ(EventKindName(EventKind::kSpanBegin), "span-begin");
  EXPECT_STREQ(EventKindName(EventKind::kSpanEnd), "span-end");
  EXPECT_STREQ(EventKindName(EventKind::kWalFlush), "wal-flush");
  EXPECT_STREQ(EventKindName(EventKind::kStealFailBurst), "steal-fail-burst");
  EXPECT_STREQ(EventKindName(EventKind::kDifferPass), "differ-pass");
  // A torn slot can carry any kind bits.
  EXPECT_STREQ(EventKindName(static_cast<EventKind>(0xffff)), "unknown");
}

// One parsed "ph":"X" event of a Chrome export.
struct ChromeEvent {
  std::string name;
  double dur = 0;
  uint64_t tid = 0;
  std::string args;
};

// Parses ExportChromeTrace's output. The export writes one event per line,
// so a line-level regex is a full check of the fields the tests rely on;
// the envelope is checked literally.
std::vector<ChromeEvent> ParseChromeTrace(const std::string& trace) {
  EXPECT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(trace.find("\"otherData\": {\"version\""), std::string::npos);
  static const std::regex kEvent(
      R"re(^  \{"name": "([^"]+)", "ph": "X", "ts": ([0-9.]+), )re"
      R"re("dur": ([0-9.]+), "pid": 1, "tid": ([0-9]+), "args": \{(.*)\}\},?$)re");
  std::vector<ChromeEvent> events;
  std::istringstream in(trace);
  std::string line;
  std::getline(in, line);  // {"traceEvents": [
  while (std::getline(in, line) && line.rfind("]", 0) != 0) {
    std::smatch m;
    EXPECT_TRUE(std::regex_match(line, m, kEvent)) << line;
    if (m.empty()) continue;
    events.push_back(ChromeEvent{m[1], std::stod(m[3]),
                                 std::stoull(m[4]), m[5]});
  }
  EXPECT_EQ(line.rfind("], \"displayTimeUnit\"", 0), 0u) << line;
  return events;
}

TEST(ObsRecorderTest, ConcurrentSpansAndExport) {
  if (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  SetEnabled(true);
  ResetRecorder();
  const SpanId span = InternSpan("test.concurrent.span", "i");

  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 5000;
  std::atomic<bool> go{false};
  std::atomic<bool> leave{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kSpansPerWriter; ++i) {
        const uint64_t t0 = NowNs();
        SpanBegin(span, t0, static_cast<uint64_t>(i));
        SpanEnd(span, t0, NowNs() - t0, static_cast<uint64_t>(i));
      }
      done.fetch_add(1, std::memory_order_release);
      // Hold the ring: an exited writer's ring goes back to the pool, and
      // a later writer would reuse it.
      while (!leave.load(std::memory_order_acquire)) std::this_thread::yield();
    });
  }
  go.store(true, std::memory_order_release);
  int exports = 0;
  do {
    std::map<uint64_t, size_t> per_thread;
    for (const ChromeEvent& e : ParseChromeTrace(ExportChromeTrace())) {
      EXPECT_GE(e.dur, 0.0);
      ++per_thread[e.tid];
    }
    for (const auto& [tid, n] : per_thread) EXPECT_LE(n, kRingEvents) << tid;
    ++exports;
  } while (done.load(std::memory_order_acquire) < kWriters);
  leave.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  EXPECT_GE(exports, 1);

  // After the writers finish, each ring holds its last kRingEvents events:
  // kRingEvents / 2 closed spans per writer.
  size_t spans = 0;
  for (const ChromeEvent& e : ParseChromeTrace(ExportChromeTrace())) {
    if (e.name == "test.concurrent.span") ++spans;
  }
  EXPECT_EQ(spans, size_t{kWriters} * (kRingEvents / 2));
}

TEST(ObsRecorderTest, UnendedSpanDumpsAsUnmatchedBegin) {
  if (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  SetEnabled(true);
  ResetRecorder();
  const SpanId open = InternSpan("test.open.span", "deltas");
  const SpanId closed = InternSpan("test.closed.span", "deltas");
  SpanBegin(closed, 100, 1);
  SpanEnd(closed, 100, 5, 1);
  SpanBegin(open, 200, 7);  // a crash here leaves the begin behind

  const std::string dump = DumpRecorderText();
  EXPECT_EQ(LintDump(dump), 3u);
  EXPECT_NE(dump.find("200 tid="), std::string::npos) << dump;
  EXPECT_NE(dump.find(" span-begin test.open.span a=0 b=7\n"),
            std::string::npos)
      << dump;
  EXPECT_EQ(dump.find("span-end test.open.span"), std::string::npos) << dump;
  EXPECT_NE(dump.find(" span-end test.closed.span a=5 b=1\n"),
            std::string::npos)
      << dump;
  // The export keeps only the closed span.
  const auto events = ParseChromeTrace(ExportChromeTrace());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.closed.span");
}

TEST(ObsRecorderTest, UninternedSpanIdPrintsUnknown) {
  if (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  SetEnabled(true);
  ResetRecorder();
  // Past the table's end, as a torn slot could read: named, not indexed.
  SpanEnd(SpanId{0xffff}, 10, 1, 0);
  EXPECT_NE(DumpRecorderText().find(" span-end unknown a=1 b=0\n"),
            std::string::npos);
  const auto events = ParseChromeTrace(ExportChromeTrace());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unknown");
}

TEST(ObsRecorderTest, ChromeExportWritesValidTrace) {
  if (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  SetEnabled(true);
  ResetRecorder();
  const SpanId traced = InternSpan("test.traced.span", "items");
  EXPECT_EQ(InternSpan("test.traced.span", "items"), traced);
  uint64_t t0 = NowNs();
  SpanBegin(traced, t0, 3);
  SpanEnd(traced, t0, NowNs() - t0, 3);
  std::thread([] {
    const SpanId other = InternSpan("test.other.thread", "n");
    const uint64_t t = NowNs();
    SpanBegin(other, t, 1);
    SpanEnd(other, t, NowNs() - t, 1);
  }).join();
  RecordEvent(EventKind::kWalFlush, 64, 2);

  const std::string path = ::testing::TempDir() + "/obs_recorder_trace.json";
  ASSERT_TRUE(WriteChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"items\": 3"), std::string::npos);
  std::map<std::string, ChromeEvent> by_name;
  for (const ChromeEvent& e : ParseChromeTrace(trace)) by_name[e.name] = e;
  ASSERT_EQ(by_name.count("test.traced.span"), 1u) << trace;
  ASSERT_EQ(by_name.count("test.other.thread"), 1u) << trace;
  ASSERT_EQ(by_name.count("wal-flush"), 1u) << trace;
  EXPECT_NE(by_name["test.traced.span"].tid, by_name["test.other.thread"].tid);
  EXPECT_EQ(by_name["test.traced.span"].args, "\"items\": 3");
  // A point event is a zero-duration X event carrying both words.
  EXPECT_EQ(by_name["wal-flush"].dur, 0.0);
  EXPECT_EQ(by_name["wal-flush"].args, "\"a\": 64, \"b\": 2");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteChromeTrace("/nonexistent-dir/trace.json"));
}

TEST(ObsRecorderTest, EngineSpanOutlivesItsEngine) {
  if (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  EnabledGuard guard;
  SetEnabled(true);
  ResetRecorder();
  {
    const Var a = 0, b = 1;
    Query q("Q", Schema{a, b}, {Atom{"R", Schema{a, b}}});
    auto tree = ViewTree<IntRing>::Make(q);
    ASSERT_TRUE(tree.ok());
    ViewTreeEngine<IntRing> engine(std::move(*tree));
    std::vector<Delta<IntRing>> batch = {{"R", Tuple{1, 2}, 1},
                                         {"R", Tuple{3, 4}, 1}};
    engine.ApplyBatch(batch);
  }
  const std::string trace = ExportChromeTrace();
  std::map<std::string, ChromeEvent> by_name;
  for (const ChromeEvent& e : ParseChromeTrace(trace)) by_name[e.name] = e;
  ASSERT_EQ(by_name.count("engine.view-tree.apply_batch"), 1u) << trace;
  EXPECT_EQ(by_name["engine.view-tree.apply_batch"].args, "\"deltas\": 2");
  EXPECT_EQ(by_name.count("viewtree.apply_batch"), 1u) << trace;
  EXPECT_GE(by_name.count("viewtree.node"), 1u) << trace;
}

}  // namespace
}  // namespace incr::obs
