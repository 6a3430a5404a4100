#include "incr/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numbers>

#include "incr/util/stats.h"
#include "incr/version.h"

namespace incr::obs {

#ifndef INCR_OBS_DISABLED
namespace internal {
namespace {
bool EnabledFromEnv() {
  const char* v = std::getenv("INCR_OBS");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
           std::strcmp(v, "false") == 0 || std::strcmp(v, "OFF") == 0);
}
}  // namespace

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{EnabledFromEnv()};
  return flag;
}
}  // namespace internal
#endif

size_t ThreadSlot() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  static_assert((kStripes & (kStripes - 1)) == 0, "kStripes power of two");
  return slot & (kStripes - 1);
}

void Histogram::Record(uint64_t v) {
  Cell& c = cells_[ThreadSlot()];
  c.buckets[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  c.sum.fetch_add(v, std::memory_order_relaxed);
  // Relaxed CAS loops; bounded because min/max move monotonically.
  uint64_t cur = c.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !c.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = c.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !c.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramStats Histogram::Stats() const {
  HistogramStats s;
  uint64_t min = UINT64_MAX;
  for (const auto& c : cells_) {
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      uint64_t n = c.buckets[b].load(std::memory_order_relaxed);
      s.buckets[b] += n;
      s.count += n;
    }
    s.sum += c.sum.load(std::memory_order_relaxed);
    min = std::min(min, c.min.load(std::memory_order_relaxed));
    s.max = std::max(s.max, c.max.load(std::memory_order_relaxed));
  }
  s.min = (s.count == 0) ? 0 : min;
  return s;
}

void Histogram::Reset() {
  for (auto& c : cells_) {
    for (auto& b : c.buckets) b.store(0, std::memory_order_relaxed);
    c.sum.store(0, std::memory_order_relaxed);
    c.min.store(UINT64_MAX, std::memory_order_relaxed);
    c.max.store(0, std::memory_order_relaxed);
  }
}

double HistogramStats::Quantile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min);
  if (p >= 100.0) return static_cast<double>(max);
  // Walk buckets until we pass the same nearest-rank index Percentile
  // would select on the raw samples.
  const size_t rank = NearestRank(count, p);
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) {
      if (b == 0) return 0.0;
      // Bucket b holds [2^(b-1), 2^b - 1]; report the geometric midpoint,
      // clamped to the observed range.
      double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      double rep = lo * std::numbers::sqrt2;
      rep = std::max(rep, static_cast<double>(min));
      rep = std::min(rep, static_cast<double>(max));
      return rep;
    }
  }
  return static_cast<double>(max);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();  // never destroyed
  return *g;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

StatsSnapshot MetricsRegistry::Snapshot() const {
  StatsSnapshot s;
  s.build_json = BuildInfoJson();
  std::lock_guard<std::mutex> lock(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->Value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->Value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) s.histograms.emplace_back(name, h->Stats());
  return s;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {
std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}
}  // namespace

std::string StatsSnapshot::ToJson() const {
  std::string out = "{\"build\": " + build_json;
  out += ", \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(counters[i].first) +
           "\": " + std::to_string(counters[i].second);
  }
  out += "}, \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(gauges[i].first) +
           "\": " + std::to_string(gauges[i].second);
  }
  out += "}, \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) out += ", ";
    const auto& [name, h] = histograms[i];
    out += "\"" + JsonEscape(name) + "\": {";
    out += "\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    out += ", \"min\": " + std::to_string(h.min);
    out += ", \"max\": " + std::to_string(h.max);
    out += ", \"mean\": " + FmtDouble(h.Mean());
    out += ", \"p50\": " + FmtDouble(h.Quantile(50));
    out += ", \"p90\": " + FmtDouble(h.Quantile(90));
    out += ", \"p99\": " + FmtDouble(h.Quantile(99));
    out += "}";
  }
  out += "}}";
  return out;
}

std::string StatsSnapshot::ToText() const {
  std::string out;
  char buf[256];
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, v] : counters) {
      std::snprintf(buf, sizeof(buf), "  %-44s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(v));
      out += buf;
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, v] : gauges) {
      std::snprintf(buf, sizeof(buf), "  %-44s %12lld\n", name.c_str(),
                    static_cast<long long>(v));
      out += buf;
    }
  }
  if (!histograms.empty()) {
    out += "histograms:                                     "
           "       count         mean          p50          p99          max\n";
    for (const auto& [name, h] : histograms) {
      std::snprintf(buf, sizeof(buf),
                    "  %-44s %12llu %12.4g %12.4g %12.4g %12llu\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    h.Mean(), h.Quantile(50), h.Quantile(99),
                    static_cast<unsigned long long>(h.max));
      out += buf;
    }
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

}  // namespace incr::obs
