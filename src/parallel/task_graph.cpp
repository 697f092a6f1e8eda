#include "parallel/task_graph.hpp"

#include <thread>

#include "common/check.hpp"
#include "common/clock.hpp"
#include "parallel/thread_pool.hpp"

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

}  // namespace

TaskGraph::TaskGraph(ThreadPool& pool,
                     telemetry::TelemetrySession* telemetry)
    : pool_(pool), telemetry_(telemetry) {
  for (std::size_t i = 0; i <= pool.size(); ++i) lanes_.emplace_back();
  spin_iters_ = std::thread::hardware_concurrency() > 1 ? 1024 : 0;
  if (telemetry != nullptr && telemetry->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = telemetry->metrics();
    m_runs_ = &reg.counter("graph.runs");
    m_tasks_ = &reg.counter("graph.tasks");
    m_steals_ = &reg.counter("graph.steals");
    m_ready_wait_ = &reg.histogram("graph.ready_wait_ns");
    trace_tasks_ = telemetry->trace_enabled();
  }
}

TaskGraph::TaskId TaskGraph::add(std::function<void()> fn,
                                 std::span<const TaskId> deps,
                                 const char* name) {
  const TaskId id = static_cast<TaskId>(nodes_.size());
  PARSGD_CHECK(id != kNoTask, "TaskGraph is full");
  nodes_.emplace_back(std::move(fn), name);
  Node& node = nodes_.back();
  std::uint32_t in_degree = 0;
  for (const TaskId dep : deps) {
    if (dep == kNoTask) continue;
    PARSGD_CHECK(dep < id,
                 "task " << id << " depends on " << dep
                         << ", which is not an earlier task (graphs are "
                            "DAGs built in dependency order)");
    nodes_[dep].out.push_back(id);
    ++in_degree;
  }
  if (in_degree == 0) {
    // Root task: immediately ready. Seed lanes round-robin so the first
    // wave of independent work is spread before stealing kicks in.
    lanes_[next_seed_lane_].q.push_back(id);
    next_seed_lane_ = (next_seed_lane_ + 1) % lanes_.size();
    ready_count_.fetch_add(1);
  } else {
    node.pending.store(in_degree, std::memory_order_relaxed);
  }
  return id;
}

void TaskGraph::record_error() noexcept {
  std::lock_guard<std::mutex> lock(park_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void TaskGraph::push_ready(TaskId id, std::size_t lane) {
  if (m_ready_wait_ != nullptr) nodes_[id].ready_ns = monotonic_ns();
  {
    std::lock_guard<std::mutex> lock(lanes_[lane].m);
    lanes_[lane].q.push_back(id);
  }
  ready_count_.fetch_add(1);  // seq_cst: pairs with the sleeper's check
  if (sleepers_.load() > 0) {
    // Lock-then-notify closes the window between a sleeper's predicate
    // check and its wait — the notify cannot land before the sleeper is
    // actually blocked (or has seen the new ready count).
    { std::lock_guard<std::mutex> lock(park_mutex_); }
    park_cv_.notify_all();
  }
}

bool TaskGraph::pop_or_steal(std::size_t lane, TaskId& id) {
  {
    Lane& own = lanes_[lane];
    std::lock_guard<std::mutex> lock(own.m);
    if (!own.q.empty()) {
      // LIFO from the own lane: the task just released shares cache state
      // with the task that released it.
      id = own.q.back();
      own.q.pop_back();
      ready_count_.fetch_sub(1);
      return true;
    }
  }
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    Lane& victim = lanes_[(lane + i) % lanes_.size()];
    std::lock_guard<std::mutex> lock(victim.m);
    if (!victim.q.empty()) {
      // FIFO from a victim: the oldest ready task is the one the owner
      // would reach last.
      id = victim.q.front();
      victim.q.pop_front();
      ready_count_.fetch_sub(1);
      if (m_steals_ != nullptr) m_steals_->inc();
      return true;
    }
  }
  return false;
}

void TaskGraph::execute(TaskId id, std::size_t lane) {
  Node& node = nodes_[id];
  if (m_ready_wait_ != nullptr && node.ready_ns != 0) {
    m_ready_wait_->record(
        static_cast<double>(monotonic_ns() - node.ready_ns));
  }
  try {
    if (trace_tasks_) {
      telemetry::TraceSpan span(&telemetry_->trace(), node.name);
      span.arg("task", static_cast<double>(id));
      node.fn();
    } else {
      node.fn();
    }
  } catch (...) {
    // First error wins; successors are still released so the graph drains
    // completely (the ThreadPool chunk semantics).
    record_error();
  }
  for (const TaskId s : node.out) {
    if (nodes_[s].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      push_ready(s, lane);
    }
  }
  const std::size_t done = executed_.fetch_add(1) + 1;
  if (done == total_) {
    { std::lock_guard<std::mutex> lock(park_mutex_); }
    park_cv_.notify_all();
  }
}

void TaskGraph::participant_loop(std::size_t lane) {
  for (;;) {
    TaskId id;
    if (pop_or_steal(lane, id)) {
      execute(id, lane);
      continue;
    }
    if (executed_.load() >= total_) return;
    // Nothing ready but the graph has not drained: another participant is
    // running the tasks ours depend on. Spin briefly, then park.
    bool woke = false;
    for (unsigned i = 0; i < spin_iters_; ++i) {
      if (ready_count_.load() > 0 || executed_.load() >= total_) {
        woke = true;
        break;
      }
      cpu_pause();
    }
    if (woke) continue;
    std::unique_lock<std::mutex> lock(park_mutex_);
    sleepers_.fetch_add(1);
    park_cv_.wait(lock, [&] {
      return ready_count_.load() > 0 || executed_.load() >= total_;
    });
    sleepers_.fetch_sub(1);
  }
}

void TaskGraph::run() {
  if (nodes_.empty()) return;
  total_ = nodes_.size();
  executed_.store(0);
  if (m_runs_ != nullptr) m_runs_->inc();
  if (m_tasks_ != nullptr) m_tasks_->add(static_cast<double>(total_));
  if (m_ready_wait_ != nullptr) {
    // Root tasks have been ready since add(); their wait clock starts at
    // the run, not at graph construction.
    const std::uint64_t now = monotonic_ns();
    for (Node& node : nodes_) {
      if (node.pending.load(std::memory_order_relaxed) == 0) {
        node.ready_ns = now;
      }
    }
  }
  if (total_ == 1) {
    // Nothing to overlap: drain on the calling thread from lane 0, where
    // add() seeded the sole (root) task, without waking the pool.
    participant_loop(0);
  } else {
    const std::function<void(std::size_t)> loop = [this](std::size_t p) {
      participant_loop(p);
    };
    pool_.run_on_all_with_caller(loop);
  }
  // Reset for rebuilding (capacity is kept by the deques' blocks).
  nodes_.clear();
  for (Lane& l : lanes_) l.q.clear();
  next_seed_lane_ = 0;
  total_ = 0;
  ready_count_.store(0);
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace parsgd
