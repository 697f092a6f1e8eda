#include "sgd/step_path.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

void run_minibatch_epoch(const Model& model, const TrainData& data,
                         real_t alpha, std::span<real_t> w, Rng& rng,
                         FaultInjector& faults,
                         telemetry::TelemetrySession* telemetry,
                         const MinibatchEpochOptions& opts) {
  PARSGD_CHECK(opts.minibatch > 0, "minibatch size must be positive");
  const std::size_t n = data.n();
  const std::size_t nb = (n + opts.minibatch - 1) / opts.minibatch;
  std::vector<std::uint32_t> order(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    order[b] = static_cast<std::uint32_t>(b);
  }
  rng.shuffle(order);
  telemetry::Counter* c_updates =
      telemetry != nullptr && telemetry->metrics_enabled()
          ? &telemetry->metrics().counter("sync.updates")
          : nullptr;
  ThreadPool& pool =
      opts.pool != nullptr ? *opts.pool : ThreadPool::global();

  // Build the whole epoch as one dependency graph, then drain it once.
  TaskGraph graph(pool, telemetry);
  BatchGraphScratch scratch;
  FaultInjector* f = &faults;
  // Chain after-update bookkeeping only when someone observes it; with
  // faults inactive and no telemetry the update task itself is the link.
  const bool chain_after = faults.active() || c_updates != nullptr;
  TaskGraph::TaskId prev = TaskGraph::kNoTask;
  for (const std::uint32_t b : order) {
    const std::size_t begin = static_cast<std::size_t>(b) * opts.minibatch;
    const std::size_t end = std::min(n, begin + opts.minibatch);
    const TaskGraph::TaskId update = model.batch_step_graph(
        graph, scratch, data, begin, end, opts.use_dense, alpha, w, w,
        prev);
    if (chain_after) {
      prev = graph.add(
          [f, w, c_updates] {
            f->after_update(w);
            if (c_updates != nullptr) c_updates->inc();
          },
          {update}, "after_update");
    } else {
      prev = update;
    }
  }
  graph.run();
}

}  // namespace parsgd
