#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "incr/obs/metrics.h"
#include "incr/util/check.h"
#include "incr/util/stats.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail TailLatency(const std::vector<double>& xs, int percentile) {
  constexpr size_t kWindows = 3;
  const size_t per = xs.size() / kWindows;
  if (per == 0) return {xs.empty() ? 0 : incr::Percentile(xs, percentile), percentile, false};
  std::vector<double> vals;
  for (size_t w = 0; w < kWindows; ++w) {
    vals.push_back(incr::Percentile(
        std::vector<double>(xs.begin() + static_cast<long>(w * per),
                            xs.begin() + static_cast<long>((w + 1) * per)),
        percentile));
  }
  Tail t{Median(vals), percentile,
         static_cast<double>(per) * (100 - percentile) / 100.0 >= 10};
  for (double v : vals) t.repeats = t.repeats && std::fabs(v - t.value) <= 0.1 * t.value;
  return t;
}

std::string Tail::Note() const {
  return "p" + std::to_string(percentile) + ", median of 3 windows" +
         (repeats ? "" : "; does not repeat within a tenth in this run");
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void Digest::Add(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

const std::vector<std::string> RegistryTally::kCounters = {
    "threadpool.jobs",       "threadpool.tasks",
    "threadpool.stolen_tasks", "pool.steal_fail",
    "relation.rehashes",     "relation.batch_upserts",
    "relation.batch_erases", "viewtree.snapshot_publishes",
    "viewtree.snapshot_replays", "wal.bytes",
    "wal.flushes",           "wal.appends",
    "pager.hits",            "pager.misses",
    "pager.evictions",       "pager.writebacks"};
const std::vector<std::string> RegistryTally::kHists = {
    "threadpool.wake_ns",   "threadpool.job_ns",
    "viewtree.shard_imbalance_x100", "server.q0.update_ns",
    "server.q1.update_ns",  "server.q0.enum_ns"};

RegistryTally::Reading RegistryTally::Read() {
  auto& reg = incr::obs::MetricsRegistry::Global();
  Reading r;
  for (const std::string& c : kCounters) {
    r.counters.push_back(static_cast<double>(reg.GetCounter(c)->Value()));
  }
  for (const std::string& h : kHists) {
    const incr::obs::HistogramStats st = reg.GetHistogram(h)->Stats();
    r.hist_sum.push_back(static_cast<double>(st.sum));
    r.hist_count.push_back(static_cast<double>(st.count));
  }
  return r;
}

void RegistryTally::Begin() { start_ = Read(); }

void RegistryTally::End() {
  const Reading now = Read();
  for (size_t i = 0; i < kCounters.size(); ++i) {
    total_.counters[i] += now.counters[i] - start_.counters[i];
  }
  for (size_t i = 0; i < kHists.size(); ++i) {
    total_.hist_sum[i] += now.hist_sum[i] - start_.hist_sum[i];
    total_.hist_count[i] += now.hist_count[i] - start_.hist_count[i];
  }
}

namespace {
size_t IndexOf(const std::vector<std::string>& names, const std::string& n) {
  const auto it = std::find(names.begin(), names.end(), n);
  INCR_CHECK(it != names.end());
  return static_cast<size_t>(it - names.begin());
}
}  // namespace

double RegistryTally::Counter(const std::string& name) const {
  return total_.counters[IndexOf(kCounters, name)];
}

double RegistryTally::HistMean(const std::string& name) const {
  const size_t i = IndexOf(kHists, name);
  return total_.hist_count[i] == 0 ? 0
                                   : total_.hist_sum[i] / total_.hist_count[i];
}

double RegistryTally::HistCount(const std::string& name) const {
  return total_.hist_count[IndexOf(kHists, name)];
}

void ReportPoolLayers(const RegistryTally& t, Result* out) {
  out->Layer("pool.jobs", t.Counter("threadpool.jobs"), "count");
  out->Layer("pool.tasks", t.Counter("threadpool.tasks"), "count");
  out->Layer("pool.stolen_tasks", t.Counter("threadpool.stolen_tasks"),
             "count");
  out->Layer("pool.steal_fail", t.Counter("pool.steal_fail"), "count");
  out->Layer("pool.wake_mean_us", t.HistMean("threadpool.wake_ns") / 1e3, "us",
             static_cast<uint64_t>(t.HistCount("threadpool.wake_ns")));
  out->Layer("pool.job_mean_us", t.HistMean("threadpool.job_ns") / 1e3, "us",
             static_cast<uint64_t>(t.HistCount("threadpool.job_ns")));
}

void ReportSharedLayers(const RegistryTally& t, double write_calls,
                        double deltas, double ops, bool pager, Result* out) {
  out->Layer("data.rehashes", t.Counter("relation.rehashes"), "count");
  out->Layer("data.upserts", t.Counter("relation.batch_upserts"), "count");
  out->Layer("data.erases", t.Counter("relation.batch_erases"), "count");
  out->Layer("engines.snapshot_publishes_per_batch",
             t.Counter("viewtree.snapshot_publishes") / write_calls, "count");
  out->Layer("engines.snapshot_replays_per_batch",
             t.Counter("viewtree.snapshot_replays") / write_calls, "count");
  out->Layer("store.wal_bytes_per_delta", t.Counter("wal.bytes") / deltas,
             "bytes");
  out->Layer("store.wal_flushes_per_op", t.Counter("wal.flushes") / deltas,
             "count");
  if (!pager) return;
  const double hits = t.Counter("pager.hits");
  const double misses = t.Counter("pager.misses");
  out->Layer("pager.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
             "fraction");
  out->Layer("pager.misses_per_op", misses / ops, "count");
  out->Layer("pager.writebacks_per_op", t.Counter("pager.writebacks") / ops,
             "count");
  out->Layer("pager.evictions", t.Counter("pager.evictions"), "count");
}

SpanLog::SpanLog(uint32_t thread, size_t reserve) : thread_(thread) {
  spans_.reserve(reserve);
}

int32_t SpanLog::Begin(const char* name, const char* layer, uint64_t request,
                       int32_t parent) {
  spans_.push_back(Span{name, layer, request, parent, thread_, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<std::pair<std::string, double>> LayerSelfNs(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> self;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.t1 - s.t0);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = static_cast<double>(spans[i].t1 - spans[i].t0);
      self[spans[i].layer] += std::max(0.0, dur - child_ns[i]);
    }
  }
  return {self.begin(), self.end()};
}

size_t WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  uint64_t base = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) base = std::min(base, s.t0);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  size_t n = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"request\": %llu}}",
                   n == 0 ? "" : ",\n", s.name, s.layer,
                   static_cast<double>(s.t0 - base) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3, s.thread,
                   static_cast<unsigned long long>(s.request));
      ++n;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return n;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Result::Info(const std::string& key, double v) {
  info.emplace_back(key, JsonNumber(v));
}

void Result::InfoStr(const std::string& key, const std::string& v) {
  info.emplace_back(key, JsonString(v));
}

uint64_t Result::FailedChecks() const {
  uint64_t n = 0;
  for (const auto& [name, ok] : checks) n += ok ? 0 : 1;
  return n;
}

}  // namespace perfbench
