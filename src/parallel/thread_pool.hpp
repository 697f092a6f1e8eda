// Fixed-size thread pool with a lock-free-dispatch parallel_for, the
// execution substrate of the CPU linalg backend (the role OpenMP plays in
// the paper's implementation).
//
// Design (see DESIGN.md "CPU backend fast path"):
//  * Workers are persistent. A job is published once (under the mutex, so
//    job fields need no atomics) and then *dispatched* lock-free: every
//    participant pulls chunk indices from one atomic counter, so chunks
//    are handed out FIFO (chunk 0 first) with no per-chunk allocation and
//    no queue mutation.
//  * parallel_for splits [0, n) into ~4x more chunks than workers
//    (oversubscription absorbs imbalance, e.g. skewed CSR rows) and the
//    calling thread drains chunks alongside the workers.
//  * Workers spin briefly before parking on a condition variable; on a
//    single-hardware-thread host the spin is disabled so the one core is
//    never wasted busy-waiting.
//  * Exceptions from chunk bodies propagate to the caller (first one
//    wins) after every chunk has run, exactly like the original
//    queue-based pool.
//  * A pool built with NoWorkers has the calling thread as its only
//    participant: every job runs on the caller, with the same chunk
//    grid and telemetry as a one-worker pool. It is the private
//    executor of a run that itself executes on another pool's thread
//    (concurrent step search, DESIGN.md §5), where the shared pool's
//    non-reentrant jobs and live-job CHECKs would otherwise trip.
//
// The pool is honest parallel code: it spawns real std::threads, so on a
// many-core host it scales; on the 4-core reproduction host it still runs
// correctly, far below the paper's 56 threads (hardware efficiency for
// multi-threaded configurations is *modeled* by hwmodel, see DESIGN.md §5).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/session.hpp"

namespace parsgd {

/// A fixed pool of worker threads executing closures.
class ThreadPool {
 public:
  /// Creates `threads` workers. 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  /// Tag for a pool without workers: size() is 0 and every job runs on
  /// the calling thread.
  struct NoWorkers {};
  explicit ThreadPool(NoWorkers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(chunk_begin, chunk_end) over [0, n) split into contiguous
  /// chunks (about kChunksPerWorker per worker; chunks are claimed FIFO,
  /// chunk 0 first); blocks until all chunks finish. The calling thread
  /// participates in execution. fn must be thread-safe. Exceptions from
  /// fn propagate after all chunks have run (first one wins).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs fn(worker_index) once on each of size() workers and blocks
  /// (nothing runs on a NoWorkers pool).
  void run_on_all(const std::function<void(std::size_t)>& fn);

  /// run_on_all with the calling thread enlisted too: fn runs on every
  /// worker (indices [0, size())) and on the caller (index size()), so a
  /// cooperative run — e.g. a TaskGraph drain — gets size() + 1
  /// participants instead of leaving the caller blocked. Exceptions from
  /// any participant propagate after all have returned (first one wins).
  void run_on_all_with_caller(const std::function<void(std::size_t)>& fn);

  /// Attaches (or detaches, with nullptr) a telemetry session. The pool
  /// then feeds `pool.*` instruments — jobs/chunks counters, queue-wait
  /// dispatch-latency histogram, park/wakeup counters, per-job chunk
  /// imbalance gauge — and, in trace mode, a span per chunk on the
  /// executing worker's lane. Must not be called while a job is live;
  /// the session must outlive its attachment. Detached (the default) costs one untaken branch per
  /// chunk.
  void set_telemetry(telemetry::TelemetrySession* session);

  /// Chunk-per-worker oversubscription factor of parallel_for.
  static constexpr std::size_t kChunksPerWorker = 4;

  /// Process-wide default pool (lazily constructed, hardware concurrency).
  static ThreadPool& global();

 private:
  enum class JobKind { kParallelFor, kRunOnAll };

  void start_workers(std::size_t threads);
  void worker_loop(std::size_t index);
  void drain_chunks();
  void publish_job(JobKind kind,
                   const std::function<void(std::size_t, std::size_t)>* pf,
                   const std::function<void(std::size_t)>* all,
                   std::size_t n, std::size_t chunks);
  void finish_job();
  void record_error() noexcept;
  bool job_done() const {
    return remaining_.load(std::memory_order_acquire) == 0 &&
           active_workers_.load(std::memory_order_acquire) == 0;
  }

  std::vector<std::thread> workers_;
  unsigned spin_iters_ = 0;  ///< 0 on single-hardware-thread hosts

  // Job descriptor: written by the publishing thread under mutex_ while no
  // job is live; read by workers only after they registered for the
  // job's generation under the same mutex. The pointed-to functions
  // outlive the job (the caller blocks in finish_job()).
  JobKind kind_ = JobKind::kParallelFor;
  const std::function<void(std::size_t, std::size_t)>* pf_fn_ = nullptr;
  const std::function<void(std::size_t)>* all_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_chunks_ = 0;
  bool job_live_ = false;  ///< reentrancy guard (under mutex_)

  // Telemetry handles, cached on set_telemetry so the hot path never
  // touches the registry. Written under mutex_ while no job is live and
  // read by participants that registered for a later generation under
  // the same mutex; null when detached.
  telemetry::TelemetrySession* telemetry_ = nullptr;
  telemetry::Counter* m_jobs_ = nullptr;
  telemetry::Counter* m_chunks_ = nullptr;
  telemetry::Counter* m_parks_ = nullptr;
  telemetry::Counter* m_wakeups_ = nullptr;
  telemetry::Histogram* m_queue_wait_ = nullptr;
  telemetry::Gauge* m_imbalance_ = nullptr;
  bool trace_chunks_ = false;
  std::uint64_t job_publish_ns_ = 0;  ///< under mutex_
  // Per-job load-balance tallies (participants CAS/add after their drain
  // loop; finish_job reads them after the active_workers_ handshake).
  std::atomic<std::size_t> job_max_chunks_{0};
  std::atomic<std::size_t> job_participants_{0};

  // Hot dispatch state (no locks on the chunk path).
  std::atomic<std::size_t> next_chunk_{0};     ///< FIFO chunk ticket
  std::atomic<std::size_t> remaining_{0};      ///< chunks (or workers) left
  std::atomic<std::size_t> active_workers_{0}; ///< workers inside the job
  std::atomic<std::uint64_t> generation_{0};   ///< bumped per job
  std::atomic<bool> stop_{false};

  std::mutex mutex_;
  std::condition_variable cv_;       ///< workers wait for a new generation
  std::condition_variable done_cv_;  ///< publisher waits for completion
  std::exception_ptr first_error_;   ///< under mutex_
};

/// pool->parallel_for(n, fn), or one call fn(0, n) on the calling thread
/// when `pool` is null.
inline void parallel_for_on(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

/// Scoped attachment of a telemetry session to a pool: attaches on
/// construction, detaches on destruction, so a pool that outlives the
/// session (e.g. ThreadPool::global()) never holds a dangling pointer.
class PoolTelemetryGuard {
 public:
  PoolTelemetryGuard(ThreadPool& pool, telemetry::TelemetrySession* session)
      : pool_(pool) {
    pool_.set_telemetry(session);
  }
  ~PoolTelemetryGuard() { pool_.set_telemetry(nullptr); }
  PoolTelemetryGuard(const PoolTelemetryGuard&) = delete;
  PoolTelemetryGuard& operator=(const PoolTelemetryGuard&) = delete;

 private:
  ThreadPool& pool_;
};

}  // namespace parsgd
