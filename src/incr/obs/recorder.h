// Always-on flight recorder: a bounded, lock-free ring of recent
// structured events per thread (DESIGN.md §obs). It is the one event
// pipeline. Maintenance layers drop fixed-size point events at interesting
// moments (epoch publish, WAL flush, checkpoint, hash-table rehash,
// steal-fail burst, recovery step) and begin/end pairs around the traced
// spans (viewtree.apply_batch > viewtree.node, viewtree.rebuild,
// threadpool.parallel_morsels, engine.<name>.apply_batch/
// enumerate). The merged tail is dumped as text on fatal error (INCR_CHECK)
// or next to auto-shrunk fuzzer `.repro` files, and as Chrome trace_event
// JSON (chrome://tracing, Perfetto) at exit when INCR_TRACE=<path> is set.
//
// Design constraints, in order:
//   * Hot path: one Enabled() load when off (zero allocation); when on, a
//     relaxed fetch_add plus four relaxed stores into the calling thread's
//     own ring. No locks, no fences. Spans take their timestamps from the
//     caller, which shares them with its histograms: the recorder reads
//     no clock for a span.
//   * Bounded memory: kRingEvents fixed slots per ring; rings are pooled
//     and handed back on thread exit, so memory is O(max concurrent
//     threads), not O(threads ever created). A trace therefore holds the
//     last kRingEvents events per thread, not the whole run.
//   * Readable anywhere: dumps may run concurrently with writers (even
//     from the fatal-error path). Every slot field is a relaxed atomic, so
//     the dump is TSan-clean; an event overwritten mid-read comes out torn
//     but the dump is advisory diagnostics, never an input to correctness.
#ifndef INCR_OBS_RECORDER_H_
#define INCR_OBS_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "incr/obs/metrics.h"

namespace incr::obs {

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t NowNs();

enum class EventKind : uint32_t {
  kNone = 0,
  kSpanBegin,       // a = 0, b = span argument
  kSpanEnd,         // a = duration ns, b = span argument
  kEpochPublish,    // a = published epoch
  kWalFlush,        // a = bytes written, b = records
  kCheckpoint,      // a = bytes written
  kRehash,          // a = rehash count delta, b = table size after
  kStealFailBurst,  // a = failed steal probes, b = morsels executed
  kRecoveryStep,    // a = records replayed, b = deltas replayed
  kFatal,           // a = 0 (marker appended by the fatal dump itself)
  kDifferPass,      // a = pass id (1 oracle, 2 dumps, 3 snapshot iso,
                    //     4 durability), b = pass-specific count
  kPageEvict,       // a = page id, b = 1 when the eviction wrote back
  kSnapshotWait,    // a = head epoch, b = retained versions: the writer
                    //     starts waiting for readers to release a pin
};

/// Stable short name for an event kind ("span-begin", "wal-flush", ...).
const char* EventKindName(EventKind k);

/// Index of a span name in the recorder's name table; 0 is "unknown".
using SpanId = uint32_t;

/// Interns a span name and the key of its one argument ("deltas", "node")
/// into a bounded table that lives until exit, so exports stay valid after
/// the interning object is gone. The same pair returns the same id. Takes
/// a lock: call once per site and cache the id beside its metric handles.
/// Returns 0 once the table is full.
SpanId InternSpan(std::string_view name, std::string_view arg_key);

namespace recorder_internal {
void RecordImpl(uint64_t ts, EventKind k, SpanId span, uint64_t a,
                uint64_t b);
}  // namespace recorder_internal

/// Events retained per thread. Power of two; older events are overwritten.
inline constexpr size_t kRingEvents = 256;

/// Drops one point event into the calling thread's ring. A no-op (and
/// allocation-free) whenever obs::Enabled() is false — the recorder's
/// kill-switch is the observability kill-switch.
inline void RecordEvent(EventKind k, uint64_t a = 0, uint64_t b = 0) {
  if (!Enabled()) return;
  recorder_internal::RecordImpl(NowNs(), k, 0, a, b);
}

/// Opens span `id` at `start_ns`, a timestamp the caller already read.
inline void SpanBegin(SpanId id, uint64_t start_ns, uint64_t arg) {
  if (!Enabled()) return;
  recorder_internal::RecordImpl(start_ns, EventKind::kSpanBegin, id, 0, arg);
}

/// Closes span `id` opened at `start_ns` after `dur_ns`.
inline void SpanEnd(SpanId id, uint64_t start_ns, uint64_t dur_ns,
                    uint64_t arg) {
  if (!Enabled()) return;
  recorder_internal::RecordImpl(start_ns + dur_ns, EventKind::kSpanEnd, id,
                                dur_ns, arg);
}

/// Merged tail of all rings, oldest first, capped at `max_events`:
/// one "ts_ns tid=<t> kind [span] a=<a> b=<b>" line per event plus a
/// header line. Span events name their span after the kind.
std::string DumpRecorderText(size_t max_events = 64);

/// Writes DumpRecorderText to `path` (truncating). False on I/O error.
bool DumpRecorderToFile(const std::string& path, size_t max_events = 64);

/// Every retained event as Chrome trace_event JSON: each closed span one
/// "ph":"X" event with its argument, each point event a zero-duration X
/// event, open spans left out; `otherData` carries BuildInfoJson().
std::string ExportChromeTrace();

/// Writes ExportChromeTrace to `path` (truncating). False on I/O error.
bool WriteChromeTrace(const std::string& path);

/// Total events ever recorded (monotone; approximate under concurrency).
/// Test/diagnostic surface.
uint64_t RecorderEventCount();

/// Clears all rings (events, not registration). Test surface.
void ResetRecorder();

}  // namespace incr::obs

#endif  // INCR_OBS_RECORDER_H_
