// perfbench: runs one workload of the repository benchmark and prints its
// result as one JSON object on the last line of stdout. run.py builds this
// binary, adds the host record and turns the object into the benchmark's
// result line; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <wire-oltp|bulk-fanout|paged-durable> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> [--drop-delta]
//
// With --trace 1 the workload runs twice at half length: once untraced and
// once with the benchmark's span buffer on. Per-layer metrics come from
// the traced pass; the difference of the two passes' end-to-end numbers is
// reported as the tracing overhead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "incr/obs/metrics.h"

namespace {

using perfbench::JsonNumber;
using perfbench::JsonString;
using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<wire-oltp|bulk-fanout|paged-durable> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--drop-delta]\n",
               msg);
  return 2;
}

bool RunWorkload(const Options& opts, Result* out) {
  if (opts.workload == "wire-oltp") {
    perfbench::RunWireOltp(opts, out);
  } else if (opts.workload == "bulk-fanout") {
    perfbench::RunBulkFanout(opts, out);
  } else if (opts.workload == "paged-durable") {
    perfbench::RunPagedDurable(opts, out);
  } else {
    return false;
  }
  return true;
}

const Metric* Find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "[";
  for (size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + JsonString(m.name) +
           ", \"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples);
    if (!m.note.empty()) out += ", \"note\": " + JsonString(m.note);
    out += "}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--drop-delta") {
      opts.drop_delta = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--workdir") {
      opts.workdir = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(opts.seconds > 0) || opts.seconds > 600) {
    return Usage("--seconds must be in (0, 600]");
  }

  Result result;
  std::vector<Metric> untraced;
  if (opts.trace) {
    // Same inputs, half length each: an untraced pass for the overhead
    // baseline, then the traced pass whose layers are reported.
    Options half = opts;
    half.seconds = opts.seconds / 2;
    half.trace = false;
    Result base;
    if (!RunWorkload(half, &base)) return Usage("unknown workload");
    untraced = base.e2e;
    half.trace = true;
    if (!RunWorkload(half, &result)) return Usage("unknown workload");
    result.attempted += base.attempted;
    result.failed += base.failed;
    for (size_t i = 0; i < base.checks.size(); ++i) {
      result.Check("untraced." + base.checks[i].first, base.checks[i].second,
                   base.check_details[i]);
    }
    // Tracing overhead, per end-to-end timing: traced minus untraced, as a
    // share of untraced.
    for (const char* name : {"update_p50_us", "read_p50_us", "deltas_per_s"}) {
      const Metric* t = Find(result.e2e, name);
      const Metric* u = Find(untraced, name);
      if (t == nullptr || u == nullptr || u->value == 0) {
        result.Layer(std::string("trace.overhead.") + name, 0, "fraction");
        continue;
      }
      result.Layer(std::string("trace.overhead.") + name,
                   (t->value - u->value) / u->value, "fraction");
    }
  } else if (!RunWorkload(opts, &result)) {
    return Usage("unknown workload");
  }

  const uint64_t failed_checks = result.FailedChecks();
  const uint64_t attempted = result.attempted + result.checks.size();
  const uint64_t failed = result.failed + failed_checks;
  const double failed_ratio =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  const bool correct = failed == 0;

  std::string checks = "[";
  for (size_t i = 0; i < result.checks.size(); ++i) {
    if (i > 0) checks += ", ";
    checks += "{\"name\": " + JsonString(result.checks[i].first) +
              ", \"ok\": " + (result.checks[i].second ? "true" : "false") +
              ", \"detail\": " + JsonString(result.check_details[i]) + "}";
  }
  checks += "]";
  std::string info = "{";
  for (size_t i = 0; i < result.info.size(); ++i) {
    if (i > 0) info += ", ";
    info += JsonString(result.info[i].first) + ": " + result.info[i].second;
  }
  info += "}";
  std::string build = "{\"hardware_concurrency\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"compiler\": " + JsonString(__VERSION__) +
                      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                      ", \"sanitizer\": " + JsonString(INCR_SANITIZE_NAME) +
                      ", \"commit\": " + JsonString(INCR_GIT_COMMIT) +
                      ", \"obs_compiled_in\": " +
                      (incr::obs::kObsCompiledIn ? "true" : "false") +
                      ", \"obs_enabled\": " +
                      (incr::obs::Enabled() ? "true" : "false") + "}";

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s, "
      "\"input_digest\": %s, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"failed_ratio\": %s, \"e2e\": %s, "
      "\"untraced_e2e\": %s, \"layer\": %s, \"checks\": %s, \"info\": %s, "
      "\"build\": %s}\n",
      JsonString(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed),
      JsonNumber(opts.seconds).c_str(), opts.trace ? "true" : "false",
      JsonString(result.input_digest).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), JsonNumber(failed_ratio).c_str(),
      MetricsJson(result.e2e).c_str(), MetricsJson(untraced).c_str(),
      MetricsJson(result.layer).c_str(), checks.c_str(), info.c_str(),
      build.c_str());
  return correct ? 0 : 1;
}
