#include "incr/engines/engine_options.h"

#include <cstdio>
#include <cstdlib>

#include "incr/util/env.h"

namespace incr {

namespace {

bool EnvFlagOff(const char* value) {
  std::string v(value);
  return v == "off" || v == "0" || v == "false";
}

}  // namespace

EngineOptions EngineOptions::FromEnv() {
  EngineOptions opts;
  long long v = 0;
  if (const char* env = std::getenv("INCR_THREADS")) {
    if (ParseEnvInt("INCR_THREADS", env, 0,
                    static_cast<long long>(kMaxThreads), &v)) {
      opts.threads = static_cast<size_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_MORSEL_BYTES")) {
    if (ParseEnvInt("INCR_MORSEL_BYTES", env, 0,
                    static_cast<long long>(kMaxMorselBytes), &v)) {
      opts.morsel_bytes = static_cast<size_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_OBS")) {
    opts.obs = !EnvFlagOff(env);
  }
  if (const char* env = std::getenv("INCR_FSYNC")) {
    opts.fsync = !EnvFlagOff(env);
  }
  if (const char* env = std::getenv("INCR_WAL_BUFFER_BYTES")) {
    if (ParseEnvInt("INCR_WAL_BUFFER_BYTES", env, 1,
                    static_cast<long long>(kMaxWalBufferBytes), &v)) {
      opts.wal_buffer_bytes = static_cast<size_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_GROUP_COMMIT_US")) {
    if (ParseEnvInt("INCR_GROUP_COMMIT_US", env, 0,
                    static_cast<long long>(kMaxGroupCommitUs), &v)) {
      opts.group_commit_window_us = static_cast<uint32_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_SNAPSHOT_READS")) {
    opts.snapshot_reads = !EnvFlagOff(env);
  }
  if (const char* env = std::getenv("INCR_MAX_RETAINED_EPOCHS")) {
    if (ParseEnvInt("INCR_MAX_RETAINED_EPOCHS", env, 2,
                    static_cast<long long>(kMaxRetainedEpochs), &v)) {
      opts.max_retained_epochs = static_cast<size_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_METRICS_PATH")) {
    opts.metrics_path = env;
  }
  if (const char* env = std::getenv("INCR_METRICS_INTERVAL_MS")) {
    if (ParseEnvInt("INCR_METRICS_INTERVAL_MS", env, 0,
                    static_cast<long long>(kMaxMetricsIntervalMs), &v)) {
      opts.metrics_interval_ms = static_cast<uint32_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_STORAGE_BACKEND")) {
    std::string b(env);
    if (b == "heap") {
      opts.storage.backend = StorageBackend::kHeap;
    } else if (b == "paged") {
      opts.storage.backend = StorageBackend::kPaged;
    } else {
      std::fprintf(stderr,
                   "incr: ignoring INCR_STORAGE_BACKEND='%s' "
                   "(expected 'heap' or 'paged')\n",
                   env);
    }
  }
  if (const char* env = std::getenv("INCR_STORAGE_PAGE_BYTES")) {
    if (ParseEnvInt("INCR_STORAGE_PAGE_BYTES", env,
                    static_cast<long long>(StorageOptions::kMinPageBytes),
                    static_cast<long long>(StorageOptions::kMaxPageBytes),
                    &v)) {
      opts.storage.page_bytes = static_cast<size_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_STORAGE_POOL_BYTES")) {
    if (ParseEnvInt("INCR_STORAGE_POOL_BYTES", env, 1,
                    static_cast<long long>(kMaxStoragePoolBytes), &v)) {
      opts.storage.buffer_pool_bytes = static_cast<size_t>(v);
    }
  }
  if (const char* env = std::getenv("INCR_STORAGE_SPILL_DIR")) {
    opts.storage.spill_dir = env;
  }
  // Cross-field contradictions (paged without a spill dir, a pool smaller
  // than one page) are clamped here so FromEnv callers get a struct that
  // constructs cleanly; explicit-struct users get the same clamping inside
  // the engines at construction time.
  opts.storage = opts.storage.Validated();
  return opts;
}

}  // namespace incr
