// Shared pieces of the repository benchmark: options, the result record
// that main() prints as JSON, latency summaries, an input digest, registry
// readers, and the benchmark's own in-memory span buffer.
//
// The span buffer is deliberately separate from the library's tracer
// (obs/trace.h): spans are recorded only here, around calls the benchmark
// makes into the library's public API, so a change to the library's own
// tracing cannot shift what the traced run reports.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

uint64_t NowNs();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for spill files, the WAL and the span file; created by run.py
  /// inside the checkout.
  std::string workdir = ".";
  /// Fault injection for the benchmark's own tests: one delta of the timed
  /// stream is withheld from the system under test but not from the
  /// reference, so the output check must fail.
  bool drop_delta = false;
};

// ---- statistics -----------------------------------------------------------

double Mean(const std::vector<double>& xs);
double Median(std::vector<double> xs);

/// A tail latency: the median over three consecutive windows of a run
/// (time order) of each window's percentile, so one stall moves it little.
struct Tail {
  double value = 0;
  int percentile = 0;
  /// Each window has at least ten samples beyond the percentile and lies
  /// within 10% of the median.
  bool repeats = false;
  std::string Note() const;
};

/// Each workload fixes its tail percentiles: the highest of p99/p95/p90
/// that has at least ten samples beyond it and whose run-to-run spread on
/// a shared 4-core host stays inside the regression bound (wire-oltp's
/// p99 and p95 did not: there they measure the host's scheduling stalls).
/// A fixed percentile keeps the metric the same quantity in every run, and
/// each run reports whether its windows repeat within a tenth.
Tail TailLatency(const std::vector<double>& xs, int percentile);

/// Resident-set high-water mark of this process, in MiB (VmHWM).
double PeakRssMiB();

// ---- input digest ---------------------------------------------------------

/// FNV-1a over the generated input stream, printed so two sides of a
/// comparison can show they ran identical inputs.
class Digest {
 public:
  void Add(const void* data, size_t n);
  void AddI64(int64_t v) { Add(&v, sizeof v); }
  void AddString(const std::string& s) { Add(s.data(), s.size()); }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ---- registry -------------------------------------------------------------

/// Registry counters and histograms summed over timed segments only:
/// Begin() before a segment, End() after it. Set-up and output checks
/// between segments do not count. Histograms are read as sum / count: the
/// registry's own quantiles come from log2 buckets and cannot resolve a
/// 10% change.
class RegistryTally {
 public:
  void Begin();
  void End();
  double Counter(const std::string& name) const;
  double HistMean(const std::string& name) const;
  double HistCount(const std::string& name) const;

  /// The names read; every other registry entry is ignored.
  static const std::vector<std::string> kCounters;
  static const std::vector<std::string> kHists;

 private:
  struct Reading {
    std::vector<double> counters;
    std::vector<double> hist_sum;
    std::vector<double> hist_count;
  };
  static Reading Read();
  Reading start_;
  Reading total_ = {std::vector<double>(kCounters.size(), 0),
                    std::vector<double>(kHists.size(), 0),
                    std::vector<double>(kHists.size(), 0)};
};

/// Reports the per-layer metrics every workload shares from the tally:
/// hash tables (data.rehashes/upserts/erases), snapshot publishing per
/// write call, the WAL (store.wal_*), and -- when `pager` -- the buffer
/// pool from the registry's pager.* counters. On a workload that bypasses
/// a layer these read zero, which is the prediction perfbench/README.md
/// records.
class Result;
void ReportSharedLayers(const RegistryTally& t, double write_calls,
                        double deltas, double ops, bool pager, Result* out);

/// The thread pool's per-layer metrics (pool.*) from the tally.
void ReportPoolLayers(const RegistryTally& t, Result* out);

// ---- spans ----------------------------------------------------------------

struct Span {
  const char* name;
  const char* layer;
  uint64_t request;  // shared by every span of one client request
  int32_t parent;    // index in the same SpanLog, -1 for a root
  uint32_t thread;
  uint64_t t0;
  uint64_t t1;
};

/// One thread's spans, appended in memory and written out once at the end.
/// Not thread-safe: each recording thread owns its own log.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread, size_t reserve = 1 << 16);
  int32_t Begin(const char* name, const char* layer, uint64_t request,
                int32_t parent);
  void End(int32_t index) { spans_[static_cast<size_t>(index)].t1 = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Records one span on `log` for its scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer,
             uint64_t request = 0, int32_t parent = -1)
      : log_(log),
        index_(log == nullptr ? -1
                              : log->Begin(name, layer, request, parent)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Self time per layer in nanoseconds: each span's duration minus the part
/// its child spans cover, summed by layer.
std::vector<std::pair<std::string, double>> LayerSelfNs(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as a Chrome trace ("X" events); returns the count.
size_t WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs);

// ---- result ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

/// Everything one workload run reports. main() adds failed_ratio, the
/// build record and the tracing overhead, and prints it as JSON.
class Result {
 public:
  std::vector<Metric> e2e;    // end-to-end metrics
  std::vector<Metric> layer;  // per-layer metrics (traced run)
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> check_details;
  uint64_t attempted = 0;  // operations the workload attempted
  uint64_t failed = 0;     // ERR replies, transport errors, failed Status
  std::string input_digest;
  /// Raw JSON fields describing the run (sizes, clients, threads, ...).
  std::vector<std::pair<std::string, std::string>> info;

  void E2e(const std::string& name, double value, const std::string& unit,
           uint64_t samples, const std::string& note = "") {
    e2e.push_back({name, value, unit, samples, note});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             uint64_t samples = 0) {
    layer.push_back({name, value, unit, samples, ""});
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks.emplace_back(name, ok);
    check_details.push_back(detail);
  }
  void Info(const std::string& key, double v);
  void InfoStr(const std::string& key, const std::string& v);
  /// Number of failed output checks.
  uint64_t FailedChecks() const;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// ---- workloads ------------------------------------------------------------

void RunWireOltp(const Options& opts, Result* out);
void RunBulkFanout(const Options& opts, Result* out);
void RunPagedDurable(const Options& opts, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
