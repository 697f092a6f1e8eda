#include "clustersim/cluster_sim.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "faults/injector.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {

/// Contiguous per-node data shards with a per-epoch shuffled visit order.
/// Identical in structure to asyncsim's per-worker partition — a shard is
/// the unit range a node owns, `begin` its first global unit.
struct Sharding {
  std::vector<std::vector<std::uint32_t>> order;  ///< per node
  std::vector<std::size_t> cursor;                ///< next unit index
  std::vector<std::size_t> begin;                 ///< first unit of shard

  Sharding(std::size_t n_units, std::size_t nodes, Rng& rng) {
    order.resize(nodes);
    cursor.assign(nodes, 0);
    begin.assign(nodes, 0);
    const std::size_t base = n_units / nodes, extra = n_units % nodes;
    std::size_t first = 0;
    for (std::size_t t = 0; t < nodes; ++t) {
      const std::size_t len = base + (t < extra);
      auto& o = order[t];
      o.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        o[i] = static_cast<std::uint32_t>(first + i);
      }
      rng.shuffle(o);
      begin[t] = first;
      first += len;
    }
  }

  bool exhausted() const {
    for (std::size_t t = 0; t < order.size(); ++t) {
      if (cursor[t] < order[t].size()) return false;
    }
    return true;
  }
};

double example_bytes(const TrainData& data, std::size_t i,
                     bool prefer_dense) {
  if (prefer_dense && data.has_dense()) {
    return static_cast<double>(data.d()) * sizeof(real_t);
  }
  return static_cast<double>(data.sparse->row_nnz(i)) *
         (sizeof(real_t) + sizeof(index_t));
}

}  // namespace

ClusterSim::ClusterSim(const Model& model, const TrainData& data,
                       const ClusterSimOptions& opts)
    : model_(model), data_(data), opts_(opts) {
  PARSGD_CHECK(opts_.nodes >= 1);
  PARSGD_CHECK(opts_.batch >= 1);
  PARSGD_CHECK(opts_.queue_depth >= 1);
  units_ = (data_.n() + opts_.batch - 1) / opts_.batch;
  nodes_eff_ = std::min(opts_.nodes, std::max<std::size_t>(units_, 1));
  // Staleness bound: interleave lag plus the network delay, the latter
  // capped by the bounded-delay queue (at most queue_depth updates in
  // flight per node). delay= overrides the whole derivation.
  if (opts_.delay_override > 0) {
    tau_ = opts_.delay_override;
  } else {
    tau_ = (nodes_eff_ - 1) +
           std::min(opts_.net_delay_units, nodes_eff_ * opts_.queue_depth);
  }
  // The delay ring cannot hold more history than the epoch produces.
  tau_ = std::min(tau_, units_ > 0 ? units_ - 1 : 0);
}

CostBreakdown ClusterSim::run_epoch(std::span<real_t> w, real_t alpha,
                                    Rng& rng, FaultInjector* faults,
                                    telemetry::TelemetrySession* telemetry,
                                    std::size_t down_node) {
  PARSGD_CHECK(w.size() == model_.dim());
  if (faults != nullptr && !faults->active()) faults = nullptr;
  stats_ = ClusterEpochStats{};

  CostBreakdown cost;
  const std::size_t n = data_.n();
  const std::size_t dim = model_.dim();
  Sharding shard(units_, nodes_eff_, rng);

  if (down_node != kNoNode && down_node < nodes_eff_) {
    stats_.node_downs = 1;
    // The shard's updates are simply lost this epoch.
    const std::size_t len = shard.order[down_node].size();
    shard.cursor[down_node] = len;
    stats_.lost_units = static_cast<double>(len);
  }

  // Ring buffer of the last tau applied deltas; each unit's actual delay
  // is drawn uniformly from [0, tau] (see header).
  std::vector<std::vector<real_t>> ring(std::max<std::size_t>(tau_, 1),
                                        std::vector<real_t>(dim, 0));
  std::size_t ring_pos = 0, ring_filled = 0;
  std::vector<real_t> view(dim), delta(dim, 0);

  std::vector<index_t> touched;
  ThreadPool& pool =
      opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
  std::optional<TaskGraph> graph;
  BatchGraphScratch gscratch;
  if (opts_.batch > 1) graph.emplace(pool, telemetry);

  // Globally interleaved unit order: round-robin over nodes.
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t t = 0; t < nodes_eff_; ++t) {
      if (shard.cursor[t] >= shard.order[t].size()) continue;
      any = true;
      const std::size_t unit = shard.order[t][shard.cursor[t]++];
      const std::size_t begin = unit * opts_.batch;
      const std::size_t end = std::min(n, begin + opts_.batch);

      // Stale parameter-server view: the model without the last d units'
      // updates, d ~ Uniform[0, tau].
      const std::size_t d_units = static_cast<std::size_t>(
          rng.uniform_index(std::min(tau_, ring_filled) + 1));
      stats_.stale_units += static_cast<double>(d_units);
      std::copy(w.begin(), w.end(), view.begin());
      for (std::size_t k = 1; k <= d_units; ++k) {
        const auto& past = ring[(ring_pos + ring.size() - k) % ring.size()];
        for (std::size_t j = 0; j < dim; ++j) view[j] -= past[j];
      }

      // Capture the unit's additive update into `delta` (the step
      // functions are additive decrements; a zero base accumulates
      // exactly the update — the "gradient" this node pushes).
      double push_bytes = 0, pull_bytes = 0;
      if (opts_.batch == 1) {
        const ExampleView x = data_.example(begin, opts_.prefer_dense);
        model_.example_step(x, data_.y[begin], alpha, view, delta,
                            &touched);
        const std::size_t k = x.touched();
        cost.flops += model_.step_flops(k) + kClusterLoopFlopsPerExample +
                      kClusterLoopFlopsPerNnz * static_cast<double>(k);
        cost.model_reads += static_cast<double>(k);
        cost.model_writes += static_cast<double>(touched.size());
        cost.bytes_random +=
            static_cast<double>(k + touched.size()) * sizeof(real_t);
        cost.bytes_streamed += example_bytes(data_, begin,
                                             opts_.prefer_dense);
        if (model_.sparse_updates()) {
          push_bytes = static_cast<double>(touched.size()) *
                       (sizeof(real_t) + sizeof(index_t));
          pull_bytes = static_cast<double>(k) * sizeof(real_t);
        } else {
          push_bytes = static_cast<double>(dim) * sizeof(real_t);
          pull_bytes = push_bytes;
        }
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
        cost.bytes_random +=
            2.0 * static_cast<double>(dim) * sizeof(real_t);
        // Mini-batch push/pull moves the whole (dense) gradient/model.
        push_bytes = static_cast<double>(dim) * sizeof(real_t);
        pull_bytes = push_bytes;
      }
      // One gradient push + one weight pull per unit.
      cost.net_messages += 2;
      cost.net_bytes += push_bytes + pull_bytes;

      // Apply at the parameter server and rotate the delay ring.
      if (tau_ > 0) {
        auto& slot = ring[ring_pos];
        if (ring_filled < tau_) ++ring_filled;
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
    }
  }

  if (telemetry != nullptr && telemetry->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = telemetry->metrics();
    reg.counter("cluster.updates")
        .add(static_cast<double>(units_) - stats_.lost_units);
    reg.counter("cluster.stale_units").add(stats_.stale_units);
    reg.counter("cluster.net_messages").add(cost.net_messages);
    reg.counter("cluster.net_bytes").add(cost.net_bytes);
  }
  return cost;
}

}  // namespace parsgd
