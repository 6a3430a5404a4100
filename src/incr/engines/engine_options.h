// EngineOptions: the single configuration struct of the public API. Every
// knob that used to live in its own setter, environment variable, or
// constructor argument — thread count, observability, durability — is a
// field here, and every IvmEngine constructor (and the
// REPL) accepts one. Engines read the fields they understand and ignore the
// rest, so options written for one engine kind work unchanged on another.
#ifndef INCR_ENGINES_ENGINE_OPTIONS_H_
#define INCR_ENGINES_ENGINE_OPTIONS_H_

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "incr/data/page_store.h"
#include "incr/util/thread_pool.h"

namespace incr {

struct EngineOptions {
  /// Threads for batch maintenance: 1 = sequential (the default), 0 = pick
  /// automatically (INCR_THREADS / hardware concurrency), n > 1 = that many.
  size_t threads = 1;

  /// Morsel granularity of the parallel batch path: bytes of input delta
  /// entries per work-stealing morsel (ViewTree::SetMorselBytes). 0 = the
  /// built-in cache-sized default. Scheduling only — results are
  /// bit-identical at every value. Ignored when threads resolve to 1.
  size_t morsel_bytes = 0;

  /// Force observability on/off; unset leaves the process-level setting
  /// (INCR_OBS / obs::SetEnabled) untouched.
  std::optional<bool> obs;

  /// Directory for the write-ahead log and checkpoint snapshot. Empty (the
  /// default) means no durability; non-empty is consumed by
  /// DurableEngine::Open / MakeEngine, which log every update there.
  std::string durability_dir;

  /// Group-commit window in microseconds: an appended WAL record may sit
  /// buffered this long before a flush groups it with its neighbors.
  /// 0 = flush (and fsync, if enabled) every update.
  uint32_t group_commit_window_us = 1000;

  /// WAL buffer capacity; the buffer is flushed when it fills regardless of
  /// the group-commit window.
  size_t wal_buffer_bytes = 1 << 20;

  /// fsync(2) the WAL on flush. Off: flushed records survive process death
  /// but not power loss (the right trade for tests and benches).
  bool fsync = true;

  /// On DurableEngine::Open, load the latest snapshot and replay the WAL
  /// tail. Off: open the log for appending but start from the engine's
  /// current (usually empty) state.
  bool recover_on_open = true;

  /// Snapshot-isolated reads: engines of the view-tree family publish
  /// every batch as an immutable epoch-tagged version, and
  /// EnumerateSnapshot serves reader threads from a pinned version while
  /// ONE maintainer thread keeps writing. Off (the default), reads and
  /// writes must be externally synchronized as before.
  bool snapshot_reads = false;

  /// Maximum published versions retained for concurrent readers (snapshot
  /// mode only; clamped to >= 2). The maintainer waits when every
  /// retained version is still pinned, so size this to cover the longest
  /// snapshot a reader holds across publishes. Memory cost is up to
  /// max_retained_epochs + 1 copies of the view state.
  size_t max_retained_epochs = 3;

  /// Non-empty: write the metrics registry in Prometheus text exposition
  /// format to this file every metrics_interval_ms (temp + rename, so
  /// scrapers never see a partial file) — the node_exporter textfile /
  /// sidecar-scrape integration point. Consumed by every engine's
  /// Configure; empty (the default) leaves any running exporter alone.
  std::string metrics_path;

  /// Rewrite period of the metrics file; 0 writes once per Configure with
  /// no background ticker.
  uint32_t metrics_interval_ms = 1000;

  /// View-state storage backend (data/page_store.h): heap (the default) or
  /// a buffer-pool paged backend that spills cold state to
  /// `storage.spill_dir` and keeps at most `storage.buffer_pool_bytes`
  /// resident. Engines validate (StorageOptions::Validated) at
  /// construction; contradictory combinations are clamped with a warning,
  /// never fatal.
  StorageOptions storage;

  /// Reads the INCR_THREADS / INCR_MORSEL_BYTES / INCR_OBS / INCR_FSYNC /
  /// INCR_WAL_BUFFER_BYTES / INCR_GROUP_COMMIT_US /
  /// INCR_SNAPSHOT_READS / INCR_MAX_RETAINED_EPOCHS / INCR_METRICS_PATH /
  /// INCR_METRICS_INTERVAL_MS / INCR_STORAGE_BACKEND /
  /// INCR_STORAGE_PAGE_BYTES / INCR_STORAGE_POOL_BYTES /
  /// INCR_STORAGE_SPILL_DIR environment variables into an options
  /// struct — the bridge from the pre-EngineOptions configuration surface.
  /// Unset variables keep the defaults above; malformed or out-of-range
  /// values are ignored with a one-line warning on stderr and never abort
  /// (env vars reach us from shells and CI configs, where a typo must not
  /// take the process down).
  static EngineOptions FromEnv();

  // Sanity ceilings for environment-supplied values. Generous — they exist
  // to catch unit mistakes (e.g. a byte count in a microsecond knob), not
  // to police reasonable configurations.
  static constexpr size_t kMaxThreads = ThreadPool::kMaxThreads;
  static constexpr size_t kMaxMorselBytes = size_t{1} << 30;  // 1 GiB
  static constexpr size_t kMaxWalBufferBytes = size_t{1} << 30;  // 1 GiB
  static constexpr uint32_t kMaxGroupCommitUs = 60 * 1000 * 1000;  // 1 min
  static constexpr size_t kMaxRetainedEpochs = 1 << 20;
  static constexpr uint32_t kMaxMetricsIntervalMs = 60 * 60 * 1000;  // 1 h
  static constexpr size_t kMaxStoragePoolBytes = size_t{1} << 40;  // 1 TiB
};

}  // namespace incr

#endif  // INCR_ENGINES_ENGINE_OPTIONS_H_
