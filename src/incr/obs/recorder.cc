#include "incr/obs/recorder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "incr/util/check.h"
#include "incr/version.h"

namespace incr::obs {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// One ring slot. Every field is an independent relaxed atomic: writers own
// the ring (single producer), dumps read concurrently and tolerate torn
// events, and TSan sees only atomic accesses. meta packs
// kind<<48 | span<<32 | tid so a slot is four words.
struct Slot {
  std::atomic<uint64_t> ts{0};
  std::atomic<uint64_t> meta{0};
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
};

struct Ring {
  std::atomic<uint64_t> head{0};  // events ever written to this ring
  uint32_t tid = 0;               // assigned at (re)acquisition
  Slot slots[kRingEvents];
};

// Registry of every ring ever allocated plus a free list of rings whose
// owning thread exited. The mutex guards registration, release, and dumps
// only — never the record hot path.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;  // owns; never shrinks
  std::vector<Ring*> free_rings;
  uint32_t next_tid = 0;
};

Registry& GlobalRegistry() {
  static Registry* r = new Registry();  // leak-on-exit: TLS dtors may race
  return *r;
}

// Span names, append-only. An entry is written under the mutex before the
// release store of `size` publishes it, so readers that load `size` with
// acquire read only complete entries, and never lock.
struct SpanName {
  std::string name;
  std::string arg;
};
constexpr size_t kMaxSpans = 256;  // < 2^16, the width of meta's id field
struct SpanTable {
  std::mutex mu;
  std::atomic<uint32_t> size{1};
  SpanName names[kMaxSpans] = {{"unknown", "arg"}};
};

SpanTable& Spans() {
  static SpanTable* t = new SpanTable();  // exports run at exit
  return *t;
}

// A torn slot may carry any id: out-of-range ids read as entry 0.
const SpanName& SpanAt(SpanId id) {
  const SpanTable& t = Spans();
  return t.names[id < t.size.load(std::memory_order_acquire) ? id : 0];
}

Ring* AcquireRing() {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  Ring* r;
  if (!reg.free_rings.empty()) {
    r = reg.free_rings.back();
    reg.free_rings.pop_back();
  } else {
    reg.rings.push_back(std::make_unique<Ring>());
    r = reg.rings.back().get();
  }
  r->tid = reg.next_tid++;
  return r;
}

void ReleaseRing(Ring* r) {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.free_rings.push_back(r);
}

// The calling thread's ring, acquired on first recorded event and handed
// back to the pool when the thread exits (events are kept — a released
// ring still holds recent history until reused).
struct TlsHolder {
  Ring* ring = nullptr;
  ~TlsHolder() {
    if (ring != nullptr) ReleaseRing(ring);
  }
};

Ring* TlsRing() {
  thread_local TlsHolder holder;
  if (holder.ring == nullptr) holder.ring = AcquireRing();
  return holder.ring;
}

struct Event {
  uint64_t ts;
  uint32_t tid;
  EventKind kind;
  SpanId span;
  uint64_t a;
  uint64_t b;
};

// The one merge behind both exports: every retained event of every ring,
// oldest first. `total` receives the count of events ever recorded.
std::vector<Event> MergedEvents(uint64_t* total) {
  std::vector<Event> events;
  *total = 0;
  {
    Registry& reg = GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& ring : reg.rings) {
      const uint64_t head = ring->head.load(std::memory_order_relaxed);
      *total += head;
      const uint64_t n = std::min<uint64_t>(head, kRingEvents);
      for (uint64_t i = 0; i < n; ++i) {
        const Slot& s = ring->slots[i];
        const uint64_t meta = s.meta.load(std::memory_order_relaxed);
        Event e{s.ts.load(std::memory_order_relaxed),
                static_cast<uint32_t>(meta),
                static_cast<EventKind>(meta >> 48),
                static_cast<SpanId>((meta >> 32) & 0xffffu),
                s.a.load(std::memory_order_relaxed),
                s.b.load(std::memory_order_relaxed)};
        if (e.ts == 0 && e.kind == EventKind::kNone) continue;
        events.push_back(e);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) { return x.ts < y.ts; });
  return events;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void DumpOnFatal() {
  if (!Enabled()) return;
  RecordEvent(EventKind::kFatal);
  std::string dump = DumpRecorderText(64);
  std::fprintf(stderr, "%s", dump.c_str());
}

// Route INCR_CHECK failures through the recorder before abort(), and
// export the rings as a Chrome trace at exit when INCR_TRACE names a file.
const bool g_hooks_installed = [] {
  incr::internal::FatalHookRef().store(&DumpOnFatal,
                                       std::memory_order_relaxed);
  const char* path = std::getenv("INCR_TRACE");
  if (path != nullptr && path[0] != '\0' && Enabled()) {
    std::atexit([] {
      if (const char* p = std::getenv("INCR_TRACE")) WriteChromeTrace(p);
    });
  }
  return true;
}();

}  // namespace

namespace recorder_internal {

void RecordImpl(uint64_t ts, EventKind k, SpanId span, uint64_t a,
                uint64_t b) {
  Ring* r = TlsRing();
  const uint64_t seq = r->head.fetch_add(1, std::memory_order_relaxed);
  Slot& s = r->slots[seq & (kRingEvents - 1)];
  s.ts.store(ts, std::memory_order_relaxed);
  s.meta.store((static_cast<uint64_t>(k) << 48) |
                   (static_cast<uint64_t>(span) << 32) | r->tid,
               std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
}

}  // namespace recorder_internal

SpanId InternSpan(std::string_view name, std::string_view arg_key) {
  SpanTable& t = Spans();
  std::lock_guard<std::mutex> lock(t.mu);
  const uint32_t n = t.size.load(std::memory_order_relaxed);
  for (uint32_t i = 1; i < n; ++i) {
    if (t.names[i].name == name && t.names[i].arg == arg_key) return i;
  }
  if (n == kMaxSpans) return 0;
  t.names[n] = SpanName{std::string(name), std::string(arg_key)};
  t.size.store(n + 1, std::memory_order_release);
  return n;
}

const char* EventKindName(EventKind k) {
  static constexpr const char* kNames[] = {
      "none", "span-begin", "span-end", "epoch-publish", "wal-flush",
      "checkpoint", "rehash", "steal-fail-burst", "recovery-step",
      "fatal", "differ-pass", "page-evict", "snapshot-wait"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(EventKind::kSnapshotWait) + 1);
  const auto i = static_cast<size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

std::string DumpRecorderText(size_t max_events) {
  uint64_t total = 0;
  std::vector<Event> events = MergedEvents(&total);
  if (events.size() > max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(max_events));
  }
  std::string out = "flight-recorder: " + std::to_string(events.size()) +
                    " events (of " + std::to_string(total) +
                    " recorded)\n";
  for (const Event& e : events) {
    out += std::to_string(e.ts) + " tid=" + std::to_string(e.tid) + " ";
    out += EventKindName(e.kind);
    if (e.kind == EventKind::kSpanBegin || e.kind == EventKind::kSpanEnd) {
      out += " " + SpanAt(e.span).name;
    }
    out += " a=" + std::to_string(e.a) + " b=" + std::to_string(e.b) + "\n";
  }
  return out;
}

bool DumpRecorderToFile(const std::string& path, size_t max_events) {
  return WriteFile(path, DumpRecorderText(max_events));
}

std::string ExportChromeTrace() {
  uint64_t total = 0;
  const std::vector<Event> events = MergedEvents(&total);
  std::string out = "{\"traceEvents\": [";
  const char* sep = "\n";
  char buf[160];
  for (const Event& e : events) {
    if (e.kind == EventKind::kSpanBegin) continue;  // its end carries it
    const bool span = e.kind == EventKind::kSpanEnd;
    const uint64_t dur = span ? std::min(e.a, e.ts) : 0;
    const SpanName& s = SpanAt(e.span);
    // Chrome expects ts/dur in microseconds; fractional values keep the
    // nanosecond resolution.
    std::snprintf(buf, sizeof buf,
                  "\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": %u, \"args\": {\"",
                  static_cast<double>(e.ts - dur) / 1000.0,
                  static_cast<double>(dur) / 1000.0, e.tid);
    out += sep;
    out += "  {\"name\": \"";
    out += span ? JsonEscape(s.name) : EventKindName(e.kind);
    out += buf;
    out += span ? JsonEscape(s.arg) + "\": " + std::to_string(e.b)
                : "a\": " + std::to_string(e.a) +
                      ", \"b\": " + std::to_string(e.b);
    out += "}}";
    sep = ",\n";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": " +
         BuildInfoJson() + "}\n";
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  return WriteFile(path, ExportChromeTrace());
}

uint64_t RecorderEventCount() {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  uint64_t total = 0;
  for (const auto& ring : reg.rings) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

void ResetRecorder() {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    ring->head.store(0, std::memory_order_relaxed);
    for (Slot& s : ring->slots) {
      s.ts.store(0, std::memory_order_relaxed);
      s.meta.store(0, std::memory_order_relaxed);
      s.a.store(0, std::memory_order_relaxed);
      s.b.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace incr::obs
