#include "asyncsim/async_sim.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "faults/injector.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {

/// Contiguous per-worker partitions with a per-epoch shuffled visit order.
struct Partition {
  std::vector<std::vector<std::uint32_t>> order;  ///< per worker
  std::vector<std::size_t> cursor;                ///< next unit index

  Partition(std::size_t n_units, int workers, Rng& rng) {
    order.resize(workers);
    cursor.assign(workers, 0);
    const std::size_t base = n_units / workers, extra = n_units % workers;
    std::size_t begin = 0;
    for (int t = 0; t < workers; ++t) {
      const std::size_t len = base + (static_cast<std::size_t>(t) < extra);
      auto& o = order[t];
      o.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        o[i] = static_cast<std::uint32_t>(begin + i);
      }
      rng.shuffle(o);
      begin += len;
    }
  }

  bool exhausted() const {
    for (std::size_t t = 0; t < order.size(); ++t) {
      if (cursor[t] < order[t].size()) return false;
    }
    return true;
  }
};

// Hogwild inner-loop bookkeeping cost in scalar-flop equivalents,
// calibrated to Table III's cpu-seq rows (which are consistent with a
// flat ~150 ns/example for RNG/indexing/branches plus ~5 ns per nonzero
// of dependent-load latency): 600 flops/example + 16 extra flops/nnz at
// the model's 2 scalar flops/cycle.
constexpr double kLoopFlopsPerExample = 600.0;
constexpr double kLoopFlopsPerNnz = 16.0;

double example_bytes(const TrainData& data, std::size_t i,
                     bool prefer_dense) {
  if (prefer_dense && data.has_dense()) {
    return static_cast<double>(data.d()) * sizeof(real_t);
  }
  // CSR row: value + column index per nnz.
  return static_cast<double>(data.sparse->row_nnz(i)) *
         (sizeof(real_t) + sizeof(index_t));
}

}  // namespace

AsyncSim::AsyncSim(const Model& model, const TrainData& data,
                   const AsyncSimOptions& opts)
    : model_(model), data_(data), opts_(opts), ledger_(model.dim()) {
  PARSGD_CHECK(opts_.workers >= 1);
  PARSGD_CHECK(opts_.batch >= 1);
  PARSGD_CHECK(opts_.window_units >= 1);
  const bool small_model =
      model.dim() * sizeof(real_t) <= opts_.snapshot_budget_bytes;
  snapshot_mode_ =
      opts_.force_snapshots || !model.sparse_updates() ||
      (small_model && model.dim() <= 4096);
  if (opts_.workers == 1) snapshot_mode_ = false;  // plain sequential SGD
}

CostBreakdown AsyncSim::run_epoch(std::span<real_t> w, real_t alpha,
                                  Rng& rng, FaultInjector* faults,
                                  telemetry::TelemetrySession* telemetry) {
  PARSGD_CHECK(w.size() == model_.dim());
  if (faults != nullptr && !faults->active()) faults = nullptr;
  last_stale_units_ = 0;
  const CostBreakdown cost =
      snapshot_mode_ ? epoch_snapshot(w, alpha, rng, faults, telemetry)
                     : epoch_inplace(w, alpha, rng, faults, telemetry);
  if (telemetry != nullptr && telemetry->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = telemetry->metrics();
    const std::size_t units =
        (data_.n() + opts_.batch - 1) / opts_.batch;
    reg.counter("async.updates").add(static_cast<double>(units));
    reg.counter("async.stale_units").add(last_stale_units_);
    reg.counter("async.write_conflicts").add(cost.write_conflicts);
  }
  return cost;
}

CostBreakdown AsyncSim::epoch_inplace(std::span<real_t> w, real_t alpha,
                                      Rng& rng, FaultInjector* faults,
                                      telemetry::TelemetrySession* telemetry) {
  CostBreakdown cost;
  const std::size_t n = data_.n();
  const std::size_t units = (n + opts_.batch - 1) / opts_.batch;
  const int workers = std::min<int>(opts_.workers, std::max<std::size_t>(units, 1));
  Partition part(units, workers, rng);

  std::vector<index_t> touched;
  // Hogbatch step path: one task graph reused per unit (DESIGN.md §15).
  ThreadPool& pool =
      opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
  std::optional<TaskGraph> graph;
  BatchGraphScratch gscratch;
  if (opts_.batch > 1) graph.emplace(pool, telemetry);
  while (!part.exhausted()) {
    ledger_.clear();
    for (int t = 0; t < workers; ++t) {
      for (std::size_t u = 0; u < opts_.window_units; ++u) {
        if (part.cursor[t] >= part.order[t].size()) break;
        const std::size_t unit = part.order[t][part.cursor[t]++];
        const std::size_t begin = unit * opts_.batch;
        const std::size_t end = std::min(n, begin + opts_.batch);
        if (opts_.batch == 1) {
          const ExampleView x = data_.example(begin, opts_.prefer_dense);
          model_.example_step(x, data_.y[begin], alpha, w, w, &touched);
          if (workers > 1) ledger_.record(t, touched);
          const std::size_t k = x.touched();
          cost.flops += model_.step_flops(k) + kLoopFlopsPerExample +
                        kLoopFlopsPerNnz * static_cast<double>(k);
          cost.model_reads += static_cast<double>(k);
          cost.model_writes += static_cast<double>(touched.size());
          cost.bytes_random += static_cast<double>(k + touched.size()) *
                               sizeof(real_t);
          cost.bytes_streamed += example_bytes(data_, begin,
                                               opts_.prefer_dense);
        } else {
          model_.batch_step_graph(*graph, gscratch, data_, begin, end,
                                  opts_.prefer_dense, alpha, w, w,
                                  TaskGraph::kNoTask);
          graph->run();
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t k =
                data_.example(i, opts_.prefer_dense).touched();
            cost.flops += model_.step_flops(k);
            cost.bytes_streamed += example_bytes(data_, i,
                                                 opts_.prefer_dense);
          }
          const double dim = static_cast<double>(model_.dim());
          cost.model_reads += dim;
          cost.model_writes += dim;
          cost.bytes_random += 2.0 * dim * sizeof(real_t);
          if (workers > 1) ledger_.record_all(t);
        }
        if (faults != nullptr) faults->after_update(w);
      }
    }
    if (workers > 1) cost.write_conflicts += ledger_.conflicts();
  }
  return cost;
}

CostBreakdown AsyncSim::epoch_snapshot(std::span<real_t> w, real_t alpha,
                                       Rng& rng, FaultInjector* faults,
                                       telemetry::TelemetrySession* telemetry) {
  // Delayed-gradient ("perturbed iterate") simulation: units execute in a
  // globally interleaved order; unit i computes its gradient from the
  // model state as of unit i - tau (tau = workers - 1: while one worker
  // runs a unit, the other workers' in-flight units have not yet reached
  // it), and its update is applied immediately. This reproduces Hogwild /
  // Hogbatch statistical behaviour faithfully: mild slowdown when the
  // in-flight fraction of an epoch is small (paper: covtype MLP, 354 vs
  // 334 epochs), severe degradation when tau spans a large share of the
  // data (paper: w8a MLP cpu-par, 10,635 vs 770 epochs).
  CostBreakdown cost;
  const std::size_t n = data_.n();
  const std::size_t dim = model_.dim();
  const std::size_t units = (n + opts_.batch - 1) / opts_.batch;
  const int workers =
      std::min<int>(opts_.workers, std::max<std::size_t>(units, 1));
  Partition part(units, workers, rng);
  const std::size_t tau =
      opts_.delay_units > 0
          ? std::min<std::size_t>(opts_.delay_units,
                                  static_cast<std::size_t>(workers - 1))
          : static_cast<std::size_t>(workers - 1);

  // Ring buffer of the last tau applied deltas. Each unit's *actual*
  // delay is drawn uniformly from [0, tau]: real racing workers are
  // desynchronized, so delays jitter around the in-flight span rather
  // than sitting at the worst case (a fixed lag resonates into limit
  // cycles that real Hogwild does not exhibit).
  std::vector<std::vector<real_t>> ring(std::max<std::size_t>(tau, 1),
                                        std::vector<real_t>(dim, 0));
  std::size_t ring_pos = 0, ring_filled = 0;
  std::vector<real_t> view(dim), delta(dim, 0);

  ledger_.clear();
  std::vector<index_t> touched;
  std::size_t units_in_window = 0;
  // Hogbatch step path: one task graph reused per unit (DESIGN.md §15).
  ThreadPool& pool =
      opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
  std::optional<TaskGraph> graph;
  BatchGraphScratch gscratch;
  if (opts_.batch > 1) graph.emplace(pool, telemetry);

  // Globally interleaved unit order: round-robin over workers.
  bool any = true;
  while (any) {
    any = false;
    for (int t = 0; t < workers; ++t) {
      if (part.cursor[t] >= part.order[t].size()) continue;
      any = true;
      const std::size_t unit = part.order[t][part.cursor[t]++];
      const std::size_t begin = unit * opts_.batch;
      const std::size_t end = std::min(n, begin + opts_.batch);

      // Stale view: the model without the last d units' updates,
      // d ~ Uniform[0, tau].
      const std::size_t d_units = static_cast<std::size_t>(
          rng.uniform_index(std::min(tau, ring_filled) + 1));
      last_stale_units_ += static_cast<double>(d_units);
      std::copy(w.begin(), w.end(), view.begin());
      for (std::size_t k = 1; k <= d_units; ++k) {
        const auto& past =
            ring[(ring_pos + ring.size() - k) % ring.size()];
        for (std::size_t j = 0; j < dim; ++j) view[j] -= past[j];
      }

      // Capture the unit's additive update into `delta` (the step
      // functions are additive decrements, so a zero base accumulates
      // exactly the update).
      if (opts_.batch == 1) {
        const ExampleView x = data_.example(begin, opts_.prefer_dense);
        model_.example_step(x, data_.y[begin], alpha, view, delta,
                            &touched);
        if (workers > 1) ledger_.record(t, touched);
        const std::size_t k = x.touched();
        cost.flops += model_.step_flops(k) + kLoopFlopsPerExample +
                      kLoopFlopsPerNnz * static_cast<double>(k);
        cost.model_reads += static_cast<double>(k);
        cost.model_writes += static_cast<double>(touched.size());
        cost.bytes_random +=
            static_cast<double>(k + touched.size()) * sizeof(real_t);
        cost.bytes_streamed += example_bytes(data_, begin,
                                             opts_.prefer_dense);
      } else {
        model_.batch_step_graph(*graph, gscratch, data_, begin, end,
                                opts_.prefer_dense, alpha, view, delta,
                                TaskGraph::kNoTask);
        graph->run();
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t k =
              data_.example(i, opts_.prefer_dense).touched();
          cost.flops += model_.step_flops(k);
          cost.bytes_streamed += example_bytes(data_, i,
                                               opts_.prefer_dense);
        }
        cost.model_reads += static_cast<double>(dim);
        cost.model_writes += static_cast<double>(dim);
        cost.bytes_random += 2.0 * static_cast<double>(dim) *
                             sizeof(real_t);
        if (workers > 1) ledger_.record_all(t);
      }

      // Apply immediately and rotate the delay ring.
      if (tau > 0) {
        auto& slot = ring[ring_pos];
        if (ring_filled < tau) ++ring_filled;
        for (std::size_t j = 0; j < dim; ++j) {
          w[j] += delta[j];
          slot[j] = delta[j];
          delta[j] = 0;
        }
        ring_pos = (ring_pos + 1) % ring.size();
      } else {
        for (std::size_t j = 0; j < dim; ++j) {
          w[j] += delta[j];
          delta[j] = 0;
        }
      }
      if (faults != nullptr) faults->after_update(w);

      // Conflict windows: one per tau+1 consecutive units.
      if (++units_in_window > tau) {
        if (workers > 1) cost.write_conflicts += ledger_.conflicts();
        ledger_.clear();
        units_in_window = 0;
      }
    }
  }
  if (workers > 1) cost.write_conflicts += ledger_.conflicts();
  return cost;
}

}  // namespace parsgd
