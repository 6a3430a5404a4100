// fuzz_ivm: the differential-testing CLI. Each seed deterministically
// generates a conjunctive query and an update stream, pushes them through
// every compatible engine configuration (check/differ.h), and reports the
// first disagreement — after shrinking it to a minimal failing pair and
// writing a replayable .repro file.
//
//   fuzz_ivm --seeds 256 --ops 1000          # fixed seed sweep
//   fuzz_ivm --seed 42 --ops 200             # one seed, verbose
//   fuzz_ivm --duration 30                   # run for ~30 seconds
//   fuzz_ivm --replay crash-42.repro         # re-run a written repro
//
// Exit status: 0 when every seed agreed, 1 on any mismatch, 2 on usage or
// I/O errors. Everything is deterministic in the seed set; --duration only
// decides how many consecutive seeds get run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "incr/check/differ.h"
#include "incr/check/qgen.h"
#include "incr/check/repro.h"
#include "incr/check/shrink.h"
#include "incr/check/wgen.h"
#include "incr/obs/recorder.h"
#include "incr/store/recover.h"
#include "incr/util/rng.h"

namespace {

using incr::Dictionary;
using incr::Rng;
using incr::check::DifferOptions;
using incr::check::DiffResult;
using incr::check::GenerateQuery;
using incr::check::GenerateStream;
using incr::check::GenQuery;
using incr::check::QGenOptions;
using incr::check::Stream;
using incr::check::WGenOptions;

struct Args {
  uint64_t seeds = 64;        // number of consecutive seeds
  uint64_t first_seed = 0;    // starting seed
  bool single_seed = false;   // --seed: run exactly one
  size_t ops = 200;           // steps per stream
  double duration_s = 0;      // > 0: run until the wall clock says stop
  size_t check_every = 16;
  size_t threads = 4;
  size_t readers = 0;
  // SIZE_MAX = sweep the built-in morsel axis by seed; anything else
  // (including 0 = engine default) pins one morsel size for every seed.
  size_t morsel = SIZE_MAX;
  bool durable = true;
  bool sql = true;
  bool shrink = true;
  bool quiet = false;
  std::string out_dir = ".";
  std::string replay;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --seeds N       run seeds 0..N-1 (default 64)\n"
      "  --seed S        run exactly seed S\n"
      "  --first S       start the sweep at seed S\n"
      "  --ops N         stream steps per seed (default 200)\n"
      "  --duration SEC  run consecutive seeds for ~SEC seconds\n"
      "  --check-every N oracle-compare cadence in steps (default 16)\n"
      "  --threads N     parallel view-tree thread count (default 4)\n"
      "  --morsel BYTES  pin the parallel morsel size (0 = engine default;\n"
      "                  unset = sweep tiny/small/default/huge by seed)\n"
      "  --readers N     concurrent snapshot-reader threads (default 0 =\n"
      "                  skip the snapshot-isolation pass)\n"
      "  --no-durable    skip the WAL kill/recovery passes\n"
      "  --sql / --no-sql  run / skip the SQL round-trip tier (default on):\n"
      "                  CompileSql over the query's SQL rendering must\n"
      "                  dump bytes identical to the CQ-parsed twin, and a\n"
      "                  serve::Session fed it must ENUMERATE the same rows\n"
      "  --no-shrink     report failures unshrunk\n"
      "  --out-dir DIR   where .repro files and WAL scratch go (default .)\n"
      "  --replay FILE   re-run a .repro file instead of generating\n"
      "  --quiet         only print failures and the final summary\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--seeds") == 0 && (v = need(i))) {
      a->seeds = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0 && (v = need(i))) {
      a->first_seed = std::strtoull(v, nullptr, 10);
      a->seeds = 1;
      a->single_seed = true;
    } else if (std::strcmp(arg, "--first") == 0 && (v = need(i))) {
      a->first_seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--ops") == 0 && (v = need(i))) {
      a->ops = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--duration") == 0 && (v = need(i))) {
      a->duration_s = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--check-every") == 0 && (v = need(i))) {
      a->check_every = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--threads") == 0 && (v = need(i))) {
      a->threads = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--morsel") == 0 && (v = need(i))) {
      a->morsel = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--readers") == 0 && (v = need(i))) {
      a->readers = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--no-durable") == 0) {
      a->durable = false;
    } else if (std::strcmp(arg, "--sql") == 0) {
      a->sql = true;
    } else if (std::strcmp(arg, "--no-sql") == 0) {
      a->sql = false;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      a->shrink = false;
    } else if (std::strcmp(arg, "--out-dir") == 0 && (v = need(i))) {
      a->out_dir = v;
    } else if (std::strcmp(arg, "--replay") == 0 && (v = need(i))) {
      a->replay = v;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      a->quiet = true;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

DifferOptions MakeDifferOptions(const Args& a, uint64_t seed) {
  DifferOptions d;
  d.check_every = a.check_every;
  d.threads = a.threads;
  d.readers = a.readers;
  d.durable = a.durable;
  d.sql = a.sql;
  d.scratch_dir = a.out_dir + "/.fuzz_wal";
  d.seed = seed;
  // The morsel axis: unless pinned, sweep the differ's parallel variants
  // and snapshot/durability passes across pathological-to-huge morsel
  // grids by seed. 64 bytes forces one-entry morsels (maximal stealing
  // and segment count); 1 GiB degenerates to a single morsel per source.
  if (a.morsel != SIZE_MAX) {
    d.morsel_bytes = a.morsel;
  } else {
    static constexpr size_t kMorselAxis[] = {0, 64, 4096, size_t{1} << 30};
    d.morsel_bytes = kMorselAxis[seed % 4];
  }
  return d;
}

/// One seed: generate, run, and on failure shrink + write the repro.
/// Returns true when the differ agreed.
bool RunSeed(const Args& a, uint64_t seed) {
  Rng rng(seed);
  GenQuery q = GenerateQuery(rng, QGenOptions{});

  WGenOptions w;
  w.ops = a.ops;
  // A deterministic mix of regimes across the seed space: every fourth
  // seed is insert-only (unlocking the insert-only engine), half the
  // seeds intern fresh strings (exercising kDict WAL records).
  w.insert_only = (seed % 4) == 3;
  Dictionary dict;
  if ((seed % 2) == 0) w.dict = &dict;
  Stream stream = GenerateStream(rng, q, w);

  DifferOptions dopts = MakeDifferOptions(a, seed);
  DiffResult r = incr::check::RunDiffer(q, stream, dopts);
  if (r.ok) {
    if (!a.quiet) {
      std::printf("seed %llu: %s  [%s, %zu atoms, %zu steps%s]\n",
                  static_cast<unsigned long long>(seed), r.Summary().c_str(),
                  q.shape.c_str(), q.query.atoms().size(),
                  stream.steps.size(), stream.insert_only ? ", insert-only" : "");
    }
    return true;
  }

  std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
              r.Summary().c_str());
  std::printf("  query: %s\n", q.text.c_str());

  const GenQuery* final_q = &q;
  const Stream* final_s = &stream;
  incr::check::ShrinkResult shrunk;
  if (a.shrink) {
    shrunk = incr::check::Shrink(q, stream, dopts);
    final_q = &shrunk.query;
    final_s = &shrunk.stream;
    std::printf("  shrunk to %zu steps / %zu deltas / %zu atoms (%zu probes)\n",
                final_s->steps.size(), final_s->NumDeltas(),
                final_q->query.atoms().size(), shrunk.probes);
  }
  const std::string path =
      a.out_dir + "/fuzz-" + std::to_string(seed) + ".repro";
  incr::Status st = incr::check::WriteReproFile(path, *final_q, *final_s, seed);
  if (st.ok()) {
    std::printf("  repro written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "  FAILED to write repro: %s\n",
                 st.message().c_str());
  }
  // Ship the flight-recorder tail next to the repro: the last events before
  // the disagreement (differ pass, WAL flushes, rehashes, ...) are the
  // runway a triager otherwise has to reconstruct.
  const std::string events_path =
      a.out_dir + "/fuzz-" + std::to_string(seed) + ".events";
  if (incr::obs::DumpRecorderToFile(events_path)) {
    std::printf("  recorder tail written to %s\n", events_path.c_str());
  }
  return false;
}

int Replay(const Args& a) {
  auto repro = incr::check::LoadReproFile(a.replay);
  if (!repro.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", a.replay.c_str(),
                 repro.status().message().c_str());
    return 2;
  }
  DifferOptions dopts = MakeDifferOptions(a, repro->seed);
  DiffResult r = incr::check::RunDiffer(repro->query, repro->stream, dopts);
  std::printf("replay %s (seed %llu): %s\n", a.replay.c_str(),
              static_cast<unsigned long long>(repro->seed),
              r.Summary().c_str());
  if (!r.ok) {
    const std::string events_path = a.replay + ".events";
    if (incr::obs::DumpRecorderToFile(events_path)) {
      std::printf("  recorder tail written to %s\n", events_path.c_str());
    }
  }
  return r.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) return 2;
  if (incr::Status st = incr::store::EnsureDir(a.out_dir); !st.ok()) {
    std::fprintf(stderr, "cannot create out dir %s: %s\n", a.out_dir.c_str(),
                 st.message().c_str());
    return 2;
  }
  if (!a.replay.empty()) return Replay(a);

  const auto t0 = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    if (a.duration_s <= 0) return false;
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    return dt.count() >= a.duration_s;
  };

  uint64_t run = 0;
  uint64_t failed = 0;
  uint64_t seed = a.first_seed;
  for (;;) {
    if (a.duration_s > 0) {
      if (out_of_time()) break;
    } else if (run >= a.seeds) {
      break;
    }
    if (!RunSeed(a, seed)) ++failed;
    ++run;
    ++seed;
  }
  std::printf("fuzz_ivm: %llu seeds, %llu failed\n",
              static_cast<unsigned long long>(run),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}
