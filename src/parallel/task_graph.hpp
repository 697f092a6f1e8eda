// TaskGraph — a lightweight dependency-driven task executor layered on
// the ThreadPool workers (DESIGN.md §15), replacing fork-join barriers on
// the engine step path.
//
// The fork-join pool runs one primitive at a time: publish, drain, barrier
// — and the flat fork/join fee is one of the calibrated overheads that
// dominates small-dataset epochs (EXPERIMENTS.md §Calibration). A graph
// run instead makes synchronization an explicit *edge*: tasks declare the
// tasks they depend on, an atomic in-degree counts predecessors down, and
// a task becomes runnable the instant its last predecessor finishes — so
// independent work from consecutive minibatches overlaps (the model-update
// task of batch k is the only dependency of batch k+1's gradient tasks;
// there is no epoch-wide join).
//
// Execution model:
//  * Build phase (single-threaded): add(fn, deps) appends a node and wires
//    its dependency edges. Dependencies must be earlier task ids (the
//    graph is a DAG by construction). kNoTask entries in a dependency list
//    are skipped, so chains seed naturally from "no previous task".
//  * Run phase: run() enlists every pool worker plus the calling thread.
//    Each participant owns a deque of ready tasks — new-ready tasks go to
//    the lane that released them (back, popped LIFO for cache warmth) and
//    idle participants steal from the front of other lanes (FIFO, the
//    oldest and therefore largest pending subtree). Participants spin
//    briefly, then park; a pusher wakes sleepers only when someone is
//    actually parked. A graph of exactly one task has nothing to overlap,
//    so it runs on the calling thread alone (same telemetry and
//    rethrow) instead of waking the pool.
//  * Exceptions: a throwing task still releases its successors (the graph
//    drains completely, mirroring ThreadPool chunk semantics); run()
//    rethrows the first error after the run.
//  * Reuse: run() resets the graph (keeping allocations), so one TaskGraph
//    can be rebuilt and rerun every epoch.
//
// Restrictions: add() must not be called from task bodies or while run()
// is in flight, and task bodies must not use the underlying pool
// (ThreadPool jobs are not reentrant — the graph run *is* the pool's job).
//
// Telemetry (attached via constructor): graph.runs / graph.tasks /
// graph.steals counters, a graph.ready_wait_ns histogram (time from
// becoming ready to starting execution), and per-task trace spans in
// trace mode.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <span>
#include <vector>

#include "telemetry/session.hpp"

namespace parsgd {

class ThreadPool;

class TaskGraph {
 public:
  using TaskId = std::uint32_t;
  /// "No dependency" sentinel; dependency entries equal to it are skipped.
  static constexpr TaskId kNoTask = 0xffffffffu;

  /// The graph executes on `pool`'s workers plus the thread that calls
  /// run(). `telemetry` (optional) must outlive the graph.
  explicit TaskGraph(ThreadPool& pool,
                     telemetry::TelemetrySession* telemetry = nullptr);

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a root task (no dependencies). Returns its id.
  TaskId add(std::function<void()> fn) { return add(std::move(fn), {}); }

  /// Adds a task that runs after every task in `deps` (earlier ids only;
  /// kNoTask entries are ignored). `name` labels the task's trace span and
  /// must outlive the run (string literals).
  TaskId add(std::function<void()> fn, std::initializer_list<TaskId> deps,
             const char* name = "task") {
    return add(std::move(fn), std::span<const TaskId>(deps.begin(),
                                                      deps.size()),
               name);
  }
  TaskId add(std::function<void()> fn, std::span<const TaskId> deps,
             const char* name = "task");

  /// Tasks added since the last run().
  std::size_t pending() const { return nodes_.size(); }

  /// Executes every pending task, honoring dependency edges; blocks until
  /// the graph drains, then resets it for rebuilding (allocations are
  /// kept). Rethrows the first task exception after the drain. No-op on an
  /// empty graph.
  void run();

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<TaskId> out;             ///< successor ids
    std::atomic<std::uint32_t> pending;  ///< unfinished predecessors
    const char* name;
    std::uint64_t ready_ns;  ///< stamp when last predecessor finished

    Node(std::function<void()> f, const char* n)
        : fn(std::move(f)), pending(0), name(n), ready_ns(0) {}
  };

  /// One ready-queue per participant, line-padded so owners and thieves
  /// on neighbouring lanes do not false-share.
  struct alignas(64) Lane {
    std::mutex m;
    std::deque<TaskId> q;
  };

  void participant_loop(std::size_t lane);
  void execute(TaskId id, std::size_t lane);
  void push_ready(TaskId id, std::size_t lane);
  bool pop_or_steal(std::size_t lane, TaskId& id);
  void record_error() noexcept;

  ThreadPool& pool_;
  std::deque<Node> nodes_;  ///< deque: atomics are not movable
  std::deque<Lane> lanes_;  ///< pool.size() + 1 (last = calling thread)
  std::size_t next_seed_lane_ = 0;  ///< round-robin for root tasks
  unsigned spin_iters_ = 0;

  std::size_t total_ = 0;                   ///< tasks in the current run
  std::atomic<std::size_t> executed_{0};    ///< tasks finished
  std::atomic<std::size_t> ready_count_{0}; ///< ready, unclaimed tasks
  std::atomic<std::size_t> sleepers_{0};    ///< parked participants
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::exception_ptr first_error_;  ///< under park_mutex_

  // Telemetry handles, cached at construction; null when detached.
  telemetry::TelemetrySession* telemetry_ = nullptr;
  telemetry::Counter* m_runs_ = nullptr;
  telemetry::Counter* m_tasks_ = nullptr;
  telemetry::Counter* m_steals_ = nullptr;
  telemetry::Histogram* m_ready_wait_ = nullptr;
  bool trace_tasks_ = false;
};

}  // namespace parsgd
