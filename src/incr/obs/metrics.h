// Process-wide metrics registry for the IVM pipeline: named counters,
// gauges, and log-bucketed latency histograms (see DESIGN.md §obs).
//
// Hot-path writes are contention-free: every metric is striped across
// kStripes cache-line-aligned cells, and each thread picks a fixed stripe
// once (ThreadSlot), so concurrent Add/Record calls from different threads
// touch different cache lines and never loop on a shared location. All
// cells are relaxed atomics — the merge on read (Value/Stats/Snapshot) is a
// sum over stripes, which tolerates torn *sets* of counters (a snapshot
// taken mid-update is simply a valid earlier-or-later total). This keeps
// the hooks TSan-clean without any locks on the write side.
//
// Toggles, layered:
//   - compile time: configure with -DINCR_OBS=OFF (defines
//     INCR_OBS_DISABLED) and Enabled() folds to constant false, so every
//     `if (obs::Enabled())` hook is dead code.
//   - run time: INCR_OBS=off|0|false in the environment, or SetEnabled().
// Registration (GetCounter etc.) stays available in both modes so callers
// can cache handles unconditionally; only recording is gated.
#ifndef INCR_OBS_METRICS_H_
#define INCR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace incr::obs {

// Number of stripes per metric. Power of two; threads beyond this many
// share stripes (still correct, slightly more contention).
inline constexpr size_t kStripes = 32;

#ifdef INCR_OBS_DISABLED
inline constexpr bool kObsCompiledIn = false;
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
inline constexpr bool kObsCompiledIn = true;
namespace internal {
std::atomic<bool>& EnabledFlag();
}  // namespace internal
/// True when metric/trace hooks should record. Initialized once from the
/// INCR_OBS environment variable ("off"/"0"/"false" disable); flip at run
/// time with SetEnabled. A single relaxed load — cheap enough to guard
/// every hook.
inline bool Enabled() {
  return internal::EnabledFlag().load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::EnabledFlag().store(on, std::memory_order_relaxed);
}
#endif

/// Stripe index for the calling thread: assigned once per thread from a
/// global counter, folded into [0, kStripes). Stable for the thread's
/// lifetime and never reused concurrently, so two live threads only share
/// a stripe when more than kStripes threads exist.
size_t ThreadSlot();

/// Monotonic counter. Add/Inc are wait-free relaxed increments on the
/// caller's stripe; Value() sums all stripes.
class Counter {
 public:
  void Add(uint64_t n) {
    cells_[ThreadSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// Last-writer-wins instantaneous value (shard count, thread count,
/// view cardinality). Not striped: sets are rare.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Histograms bucket by bit width: value v lands in bucket bit_width(v),
// i.e. bucket 0 holds v=0 and bucket b>=1 holds v in [2^(b-1), 2^b - 1].
// 64-bit values need 65 buckets.
inline constexpr size_t kHistogramBuckets = 65;

/// Merged, immutable view of a Histogram at snapshot time.
struct HistogramStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Approximate p-th percentile: exact min/max at p<=0 / p>=100, otherwise
  /// the geometric midpoint of the bucket containing the nearest-rank
  /// sample (rank shared with incr::Percentile via incr::NearestRank).
  double Quantile(double p) const;
};

/// Log-bucketed histogram of non-negative 64-bit samples (latencies in ns,
/// sizes in tuples). Record is wait-free and allocation-free.
class Histogram {
 public:
  void Record(uint64_t v);
  HistogramStats Stats() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// Point-in-time copy of every registered metric plus build provenance.
struct StatsSnapshot {
  std::string build_json;  // incr::BuildInfoJson() at snapshot time
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  /// One JSON object: {"build":{...},"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,mean,p50,p90,p99}}}.
  std::string ToJson() const;
  /// Human-readable listing for the REPL `stats` command.
  std::string ToText() const;
};

/// Owns every metric for the process. Get* registers on first use and
/// returns a pointer that stays valid for the program's lifetime, so hot
/// paths cache the handle once and never re-lock.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Merged copy of all metrics, names sorted. Zero-valued counters and
  /// empty histograms are included — presence documents the hook.
  StatsSnapshot Snapshot() const;

  /// Zeroes every counter and histogram. Gauges keep their values: they
  /// are levels their owners set (viewtree.threads is set per SetThreads).
  /// Registration is preserved.
  void Reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  // std::map: stable pointers across inserts, names pre-sorted for
  // Snapshot. The mutex guards registration and snapshot only — never the
  // recording hot path.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escapes '"', '\' and control characters for embedding in JSON strings.
std::string JsonEscape(const std::string& s);

}  // namespace incr::obs

#endif  // INCR_OBS_METRICS_H_
