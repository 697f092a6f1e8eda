#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/clock.hpp"

namespace parsgd {

namespace {

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Even split of [0, n) into `chunks` contiguous ranges (first n % chunks
/// ranges get one extra element), computed arithmetically from the chunk
/// index so dispatch allocates nothing.
inline void chunk_range(std::size_t n, std::size_t chunks, std::size_t c,
                        std::size_t& lo, std::size_t& hi) {
  const std::size_t base = n / chunks, extra = n % chunks;
  lo = c * base + std::min(c, extra);
  hi = lo + base + (c < extra ? 1 : 0);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  start_workers(threads == 0
                    ? std::max(1u, std::thread::hardware_concurrency())
                    : threads);
}

ThreadPool::ThreadPool(NoWorkers) { start_workers(0); }

void ThreadPool::start_workers(std::size_t threads) {
  // Spinning only pays off when another hardware thread can make progress
  // while we spin; on a 1-core host (or with no workers to wait for) park
  // immediately instead.
  spin_iters_ =
      threads > 0 && std::thread::hardware_concurrency() > 1 ? 4096 : 0;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::record_error() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void ThreadPool::drain_chunks() {
  // FIFO: the ticket counter hands out chunk 0 first, so the coldest
  // cache lines are touched earliest and failures reference predictable
  // ranges. A chunk that throws does not stop the remaining chunks (the
  // original queue semantics).
  std::size_t local_chunks = 0;
  for (;;) {
    const std::size_t c =
        next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= job_chunks_) break;
    std::size_t lo, hi;
    chunk_range(job_n_, job_chunks_, c, lo, hi);
    try {
      if (trace_chunks_) {
        telemetry::TraceSpan span(&telemetry_->trace(), "chunk");
        span.arg("chunk", static_cast<double>(c));
        span.arg("n", static_cast<double>(hi - lo));
        (*pf_fn_)(lo, hi);
      } else {
        (*pf_fn_)(lo, hi);
      }
    } catch (...) {
      record_error();
    }
    ++local_chunks;
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (local_chunks > 0 && m_chunks_ != nullptr) {
    m_chunks_->add(static_cast<double>(local_chunks));
    job_participants_.fetch_add(1, std::memory_order_relaxed);
    std::size_t cur = job_max_chunks_.load(std::memory_order_relaxed);
    while (local_chunks > cur &&
           !job_max_chunks_.compare_exchange_weak(
               cur, local_chunks, std::memory_order_relaxed)) {
    }
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin-then-park: briefly poll for a new generation before sleeping.
    for (unsigned i = 0; i < spin_iters_; ++i) {
      if (generation_.load(std::memory_order_acquire) != seen ||
          stop_.load(std::memory_order_acquire)) {
        break;
      }
      cpu_pause();
    }
    JobKind kind;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (m_parks_ != nullptr &&
          !stop_.load(std::memory_order_relaxed) &&
          generation_.load(std::memory_order_relaxed) == seen) {
        m_parks_->inc();  // the spin missed; this wait will block
      }
      cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) != seen;
      });
      const std::uint64_t gen =
          generation_.load(std::memory_order_relaxed);
      if (gen == seen) return;  // stopped, no new job
      seen = gen;
      // Register before touching job fields. Registration is only valid
      // while the job is live: the publisher keeps the fields frozen (and
      // the caller blocked) until every registered worker deregistered,
      // and a worker that wakes after the job already finished must not
      // touch dispatch state a future job is about to reset.
      if (!job_live_) continue;
      kind = kind_;
      if (m_queue_wait_ != nullptr) {
        m_wakeups_->inc();
        m_queue_wait_->record(
            static_cast<double>(monotonic_ns() - job_publish_ns_));
      }
      active_workers_.fetch_add(1, std::memory_order_relaxed);
    }
    if (kind == JobKind::kParallelFor) {
      drain_chunks();
    } else {
      try {
        (*all_fn_)(index);
      } catch (...) {
        record_error();
      }
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    }
    // Deregister; the last participant out signals the publisher.
    if (active_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        remaining_.load(std::memory_order_acquire) == 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::publish_job(
    JobKind kind, const std::function<void(std::size_t, std::size_t)>* pf,
    const std::function<void(std::size_t)>* all, std::size_t n,
    std::size_t chunks) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PARSGD_CHECK(!job_live_, "ThreadPool jobs are not reentrant");
    job_live_ = true;
    kind_ = kind;
    pf_fn_ = pf;
    all_fn_ = all;
    job_n_ = n;
    job_chunks_ = chunks;
    first_error_ = nullptr;
    if (m_jobs_ != nullptr) {
      m_jobs_->inc();
      job_publish_ns_ = monotonic_ns();
      job_max_chunks_.store(0, std::memory_order_relaxed);
      job_participants_.store(0, std::memory_order_relaxed);
    }
    next_chunk_.store(0, std::memory_order_relaxed);
    remaining_.store(kind == JobKind::kParallelFor ? chunks
                                                   : workers_.size(),
                     std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

void ThreadPool::finish_job() {
  for (unsigned i = 0; i < spin_iters_; ++i) {
    if (job_done()) break;
    cpu_pause();
  }
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job_done(); });
    job_live_ = false;
    err = first_error_;
    first_error_ = nullptr;
    if (m_imbalance_ != nullptr && kind_ == JobKind::kParallelFor &&
        job_chunks_ > 0) {
      // max chunks drained by one participant / fair share; 1.0 means a
      // perfectly even steal, large values mean one lane did most of the
      // work while the others lagged.
      const auto parts = static_cast<double>(
          job_participants_.load(std::memory_order_relaxed));
      const auto maxc = static_cast<double>(
          job_max_chunks_.load(std::memory_order_relaxed));
      if (parts > 0) {
        m_imbalance_->set(maxc * parts /
                          static_cast<double>(job_chunks_));
      }
    }
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // A NoWorkers pool keeps a one-worker grid so its telemetry still sees
  // chunks; the caller drains them all.
  const std::size_t chunks = std::min(
      n, std::max<std::size_t>(workers_.size(), 1) * kChunksPerWorker);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  publish_job(JobKind::kParallelFor, &fn, nullptr, n, chunks);
  drain_chunks();  // the caller is a participant too
  finish_job();
}

void ThreadPool::run_on_all(const std::function<void(std::size_t)>& fn) {
  publish_job(JobKind::kRunOnAll, nullptr, &fn, 0, 0);
  finish_job();
}

void ThreadPool::run_on_all_with_caller(
    const std::function<void(std::size_t)>& fn) {
  publish_job(JobKind::kRunOnAll, nullptr, &fn, 0, 0);
  // The caller participates under worker index size(); its run does not
  // touch the dispatch counters (remaining_ tracks workers only), so
  // finish_job still waits for every worker to return.
  try {
    fn(workers_.size());
  } catch (...) {
    record_error();
  }
  finish_job();
}

void ThreadPool::set_telemetry(telemetry::TelemetrySession* session) {
  std::lock_guard<std::mutex> lock(mutex_);
  PARSGD_CHECK(!job_live_,
               "cannot change the telemetry session while a job is live");
  telemetry_ = session;
  if (session != nullptr && session->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = session->metrics();
    m_jobs_ = &reg.counter("pool.jobs");
    m_chunks_ = &reg.counter("pool.chunks");
    m_parks_ = &reg.counter("pool.parks");
    m_wakeups_ = &reg.counter("pool.wakeups");
    m_queue_wait_ = &reg.histogram("pool.queue_wait_ns");
    m_imbalance_ = &reg.gauge("pool.chunk_imbalance");
    trace_chunks_ = session->trace_enabled();
  } else {
    m_jobs_ = nullptr;
    m_chunks_ = nullptr;
    m_parks_ = nullptr;
    m_wakeups_ = nullptr;
    m_queue_wait_ = nullptr;
    m_imbalance_ = nullptr;
    trace_chunks_ = false;
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace parsgd
