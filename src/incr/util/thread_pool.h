// A small fixed-size thread pool with one blocking job kind, the
// morsel-driven parallel loop — the execution substrate of the parallel
// batch-maintenance layer (no external dependencies, std::thread only).
//
// Design constraints, in order:
//   * Determinism support: ParallelMorsels(n, morsel, fn) promises nothing
//     about which thread runs which grid cell, so callers MUST make each
//     cell's *output* independent of scheduling (write to the cell's slot,
//     never to shared state). All parallel maintenance code in this repo
//     follows that rule, which is how thread count stays invisible in
//     results.
//   * Reuse: one pool serves many jobs; workers park on a condition
//     variable between jobs (no spawn per batch).
//   * Laziness: a pool of size 1 never spawns a worker thread.
//
// One job runs at a time per pool; a job is not reentrant from inside a
// task of the same pool (the view tree never nests them). A task that
// throws fails the job fast: the first exception is captured, the
// remaining unclaimed cells are skipped (claimed-but-skipped cells still
// count down, so the job always drains), and the job rethrows the
// captured exception on the calling thread once every worker has let go
// of it. Exceptions after the first are swallowed. The library's own
// maintenance tasks still report bugs via INCR_CHECK (abort); propagation
// exists for user-supplied sinks and callbacks that run inside tasks.
#ifndef INCR_UTIL_THREAD_POOL_H_
#define INCR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace incr {

class ThreadPool {
 public:
  /// Upper bound of a thread count read from the environment
  /// (INCR_THREADS, EngineOptions::threads). Generous: it catches unit
  /// mistakes, not reasonable configurations.
  static constexpr size_t kMaxThreads = 1024;

  /// A pool that runs jobs on `num_threads` threads total: the calling
  /// thread plus num_threads - 1 parked workers. num_threads == 0 means
  /// DefaultThreads().
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers (after finishing any in-flight job).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in a job (caller + workers).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Morsel-driven parallel loop over [0, n): fn(begin, end) is invoked
  /// exactly once per cell of the fixed morsel grid — cell m covers
  /// [m*morsel, min((m+1)*morsel, n)). The grid depends only on n and
  /// morsel, never on the thread count, so callers that index per-morsel
  /// output buffers by begin/morsel get layouts invariant under
  /// scheduling. Each thread drains a contiguous home range of the grid
  /// (one atomic claim per morsel), then sweeps the other threads' ranges
  /// once to steal leftovers; a thread leaves the job after one full
  /// failed sweep (the bounded steal budget — failed probes are counted
  /// in `pool.steal_fail`). The caller participates, and the call
  /// returns when every cell has finished; completed work happens-before
  /// the return. If a task throws, the job fails fast (remaining cells are
  /// skipped) and the first exception is rethrown here after the job
  /// drains. With a single-thread pool (or a single morsel) this is a
  /// plain inline loop with no shared state.
  void ParallelMorsels(size_t n, size_t morsel,
                       const std::function<void(size_t, size_t)>& fn);

  /// Runs fn(0) .. fn(n-1): the morsel loop over one-index cells.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    ParallelMorsels(n, 1, [&fn](size_t i, size_t) { fn(i); });
  }

  /// The thread count used when a knob is 0: the INCR_THREADS environment
  /// variable if set to an integer in [1, kMaxThreads] (other values are
  /// ignored with a warning), else hardware_concurrency().
  static size_t DefaultThreads();

 private:
  // One thread's home range of unclaimed morsel-grid cells. Each lives on
  // its own cache line so a thread's claims never ping-pong a line shared
  // with another thread's range.
  struct alignas(64) MorselRange {
    std::atomic<size_t> next{0};  // next unclaimed grid cell
    size_t end = 0;               // one past the last cell of this range
  };

  void WorkerLoop();
  // Drains the home range at `slot`, then sweeps the other ranges once;
  // returns how many morsels this thread executed (fed into the
  // caller/stolen task counters).
  size_t RunMorsels(const std::function<void(size_t, size_t)>* fn, size_t n,
                    size_t morsel, size_t slot);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_cv_;   // workers wait here for a new job
  std::condition_variable done_cv_;   // the caller waits here for pending_
  std::condition_variable idle_cv_;   // next job waits for stragglers
  // Current job; all guarded by mu_.
  const std::function<void(size_t, size_t)>* morsel_fn_ = nullptr;
  size_t morsel_n_ = 0;
  size_t morsel_size_ = 0;
  size_t epoch_ = 0;                                     // guarded by mu_
  size_t active_workers_ = 0;                            // guarded by mu_
  bool stop_ = false;                                    // guarded by mu_
  std::exception_ptr job_error_;    // first task exception; guarded by mu_
  std::vector<MorselRange> ranges_;  // one home range per thread slot
  std::atomic<size_t> join_slot_{0};  // next home-range slot to hand out
  std::atomic<size_t> pending_{0};  // morsels not yet finished
  std::atomic<bool> job_failed_{false};  // fail-fast flag for this job
  // Lock-free mirrors of epoch_/stop_ for the bounded pre-park spin in
  // WorkerLoop (the CV wait under mu_ remains the source of truth).
  std::atomic<size_t> epoch_hint_{0};
  std::atomic<bool> stop_hint_{false};
  // Submission timestamp of the current job (obs::NowNs), 0 when metrics
  // are off — lets woken workers report their wake latency.
  std::atomic<uint64_t> job_submit_ns_{0};
};

}  // namespace incr

#endif  // INCR_UTIL_THREAD_POOL_H_
