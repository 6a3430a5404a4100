#include "incr/util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "incr/obs/metrics.h"
#include "incr/obs/recorder.h"
#include "incr/util/env.h"

namespace incr {

namespace {

// Handles cached once; registration is idempotent and the pointers live
// for the process lifetime.
struct PoolMetrics {
  obs::Counter* jobs;
  obs::Counter* tasks;
  obs::Counter* caller_tasks;
  obs::Counter* stolen_tasks;
  obs::Counter* steal_fail;
  obs::Histogram* job_ns;
  obs::Histogram* task_ns;
  obs::Histogram* wake_ns;
  obs::SpanId parallel_morsels;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return PoolMetrics{
        r.GetCounter("threadpool.jobs"),
        r.GetCounter("threadpool.tasks"),
        r.GetCounter("threadpool.caller_tasks"),
        r.GetCounter("threadpool.stolen_tasks"),
        r.GetCounter("pool.steal_fail"),
        r.GetHistogram("threadpool.job_ns"),
        r.GetHistogram("threadpool.task_ns"),
        r.GetHistogram("threadpool.wake_ns"),
        obs::InternSpan("threadpool.parallel_morsels", "morsels"),
    };
  }();
  return m;
}

// Closes a job opened at `start`: its job_ns sample and its span's end
// share one clock read.
void EndJob(obs::SpanId span, uint64_t start, uint64_t arg) {
  const uint64_t dur = obs::NowNs() - start;
  Metrics().job_ns->Record(dur);
  obs::SpanEnd(span, start, dur, arg);
}

// How many relaxed polls a worker makes for a fresh job before parking on
// the condition variable. Bounds the idle burn to a few microseconds while
// letting back-to-back batches skip the futex round trip.
constexpr int kIdleSpins = 256;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  ranges_ = std::vector<MorselRange>(num_threads);
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    stop_hint_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::ParallelMorsels(
    size_t n, size_t morsel, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (morsel == 0 || morsel > n) morsel = n;
  const size_t num_morsels = (n + morsel - 1) / morsel;
  const bool obs_on = obs::Enabled();
  const obs::SpanId span = Metrics().parallel_morsels;
  const uint64_t job_start = obs_on ? obs::NowNs() : 0;
  if (obs_on) {
    Metrics().jobs->Inc();
    Metrics().tasks->Add(num_morsels);
    obs::SpanBegin(span, job_start, num_morsels);
  }
  if (workers_.empty() || num_morsels == 1) {
    // Degenerate path: no ranges, no atomics — an inline sweep of the
    // same grid, so per-morsel callback boundaries are unchanged.
    for (size_t m = 0; m < num_morsels; ++m) {
      fn(m * morsel, std::min((m + 1) * morsel, n));
    }
    if (obs_on) {
      Metrics().caller_tasks->Add(num_morsels);
      EndJob(span, job_start, num_morsels);
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Serialize concurrent callers, and wait out any worker that woke for
    // the previous job but has not yet re-parked — it may still hold
    // pointers to the old job state we are about to overwrite.
    idle_cv_.wait(lock, [this] {
      return morsel_fn_ == nullptr && active_workers_ == 0;
    });
    morsel_fn_ = &fn;
    morsel_n_ = n;
    morsel_size_ = morsel;
    // Carve the fixed grid into one contiguous home range per thread
    // slot. The grid itself never moves — ranges only decide which thread
    // *starts* where; stealing rebalances the rest.
    const size_t nslots = ranges_.size();
    const size_t base = num_morsels / nslots;
    const size_t rem = num_morsels % nslots;
    size_t at = 0;
    for (size_t t = 0; t < nslots; ++t) {
      const size_t take = base + (t < rem ? 1 : 0);
      ranges_[t].next.store(at, std::memory_order_relaxed);
      ranges_[t].end = at + take;
      at += take;
    }
    join_slot_.store(1, std::memory_order_relaxed);  // caller takes slot 0
    job_error_ = nullptr;
    job_failed_.store(false, std::memory_order_relaxed);
    pending_.store(num_morsels, std::memory_order_relaxed);
    job_submit_ns_.store(obs_on ? obs::NowNs() : 0,
                         std::memory_order_relaxed);
    ++epoch_;
    epoch_hint_.store(epoch_, std::memory_order_release);
  }
  wake_cv_.notify_all();
  size_t mine = RunMorsels(&fn, n, morsel, 0);
  if (obs_on) Metrics().caller_tasks->Add(mine);
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    morsel_fn_ = nullptr;
    err = job_error_;
    job_error_ = nullptr;
  }
  idle_cv_.notify_all();
  if (obs_on) EndJob(span, job_start, num_morsels);
  if (err) std::rethrow_exception(err);
}

size_t ThreadPool::RunMorsels(const std::function<void(size_t, size_t)>* fn,
                              size_t n, size_t morsel, size_t slot) {
  const bool obs_on = obs::Enabled();
  const size_t nslots = ranges_.size();
  size_t executed = 0;
  uint64_t steal_fails = 0;
  // Drain the home range (offset 0), then sweep every other range once.
  // A range that turns up empty advances the sweep; a successful claim
  // keeps the thread on that range until it too drains. One full failed
  // sweep == the steal budget is spent and the thread leaves the job.
  size_t offset = 0;
  while (offset < nslots) {
    MorselRange& r = ranges_[(slot + offset) % nslots];
    const size_t m = r.next.fetch_add(1, std::memory_order_relaxed);
    if (m >= r.end) {
      if (offset > 0) ++steal_fails;  // a steal probe that found nothing
      ++offset;
      continue;
    }
    const size_t begin = m * morsel;
    const size_t end = std::min(begin + morsel, n);
    // Fail fast after a task threw: skip the body of every morsel claimed
    // from here on, but still count each one down — pending_ must reach 0
    // or the caller (and the next job) would wait forever.
    if (!job_failed_.load(std::memory_order_acquire)) {
      try {
        if (obs_on) {
          const uint64_t t0 = obs::NowNs();
          (*fn)(begin, end);
          Metrics().task_ns->Record(obs::NowNs() - t0);
        } else {
          (*fn)(begin, end);
        }
        ++executed;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!job_error_) job_error_ = std::current_exception();
        job_failed_.store(true, std::memory_order_release);
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
  if (obs_on && steal_fails > 0) {
    Metrics().steal_fail->Add(steal_fails);
    obs::RecordEvent(obs::EventKind::kStealFailBurst, steal_fails, executed);
  }
  return executed;
}

void ThreadPool::WorkerLoop() {
  size_t seen_epoch = 0;
  for (;;) {
    // Spin-then-park: poll the lock-free epoch mirror for a few hundred
    // pause cycles so a batch train keeps workers hot, then fall back to
    // the condition variable so an idle pool burns no core.
    for (int i = 0; i < kIdleSpins; ++i) {
      if (stop_hint_.load(std::memory_order_relaxed) ||
          epoch_hint_.load(std::memory_order_acquire) != seen_epoch) {
        break;
      }
      CpuRelax();
    }
    std::unique_lock<std::mutex> lock(mu_);
    wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    const std::function<void(size_t, size_t)>* fn = morsel_fn_;
    const size_t n = morsel_n_;
    const size_t morsel = morsel_size_;
    if (fn == nullptr) continue;  // job already finished and was cleared
    const uint64_t submit_ns = job_submit_ns_.load(std::memory_order_relaxed);
    ++active_workers_;
    lock.unlock();
    if (submit_ns != 0 && obs::Enabled()) {
      const uint64_t now = obs::NowNs();
      if (now > submit_ns) Metrics().wake_ns->Record(now - submit_ns);
    }
    const size_t slot =
        join_slot_.fetch_add(1, std::memory_order_relaxed) % ranges_.size();
    const size_t executed = RunMorsels(fn, n, morsel, slot);
    if (executed > 0 && obs::Enabled()) {
      Metrics().stolen_tasks->Add(executed);
    }
    lock.lock();
    if (--active_workers_ == 0) idle_cv_.notify_all();
    lock.unlock();
  }
}

size_t ThreadPool::DefaultThreads() {
  long long v = 0;
  if (const char* env = std::getenv("INCR_THREADS")) {
    if (ParseEnvInt("INCR_THREADS", env, 1,
                    static_cast<long long>(kMaxThreads), &v)) {
      return static_cast<size_t>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace incr
