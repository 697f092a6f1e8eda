// Cluster SGD engine (DESIGN.md §17): arch=cluster of the spec grammar —
// N simulated nodes, data-sharded, with two model-update strategies.
//
//  * sync=ps (async update head): parameter-server training through the
//    clustersim delayed-gradient interleaving. Staleness is the network's:
//    tau = (N-1) in-flight units plus the updates applied cluster-wide
//    during one push+pull round trip, derived analytically from the link
//    model and modeled constants (so it is bit-identical for fixed
//    (nodes, sync, seed) on any host), bounded by the per-node delay
//    queue. Compute and communication overlap — the queue exists exactly
//    to hide the wire — so the epoch time is max(compute, net) and the
//    price of asynchrony is paid in epochs-to-threshold.
//  * sync=allreduce (sync update head): synchronous data-parallel SGD.
//    The trajectory is delegated to the existing SyncEngine — data-
//    parallel sync SGD computes the same global gradient for any N, which
//    makes nodes=1 bit-identical to the plain sync engine by construction
//    — while the cost model divides compute across nodes and charges one
//    blocking ring all-reduce (2(N-1) chunked phases) per model update.
//
// This asymmetry extends the paper's sync/async crossover to the network
// axis: all-reduce pays the interconnect on the critical path every
// update, PS pays it in statistical efficiency.
#pragma once

#include <memory>

#include "clustersim/cluster_sim.hpp"
#include "clustersim/net_model.hpp"
#include "sgd/engine.hpp"
#include "sgd/sync_engine.hpp"
#include "sgd/timing.hpp"

namespace parsgd {

struct ClusterEngineOptions {
  std::size_t nodes = 2;
  ClusterSync sync = ClusterSync::kPs;
  int node_threads = 56;      ///< threads per simulated node
  /// PS: examples per push (default 1 = Hogwild-style); all-reduce:
  /// synchronized mini-batch size (0 = full-batch GD).
  std::size_t batch = 0;
  bool use_dense = false;
  LinkSpec link{};
  /// Explicit staleness override in units (spec key delay=); 0 = derive
  /// from the link model.
  std::size_t delay_units = 0;
  /// Bounded-delay queue: updates in flight per node (PS).
  std::size_t queue_depth = 4;
  std::size_t gemm_parallel_threshold = 5000;
  SyncCalibration calibration{};
  bool deterministic = true;
  ThreadPool* pool = nullptr;
};

class ClusterEngine final : public Engine {
 public:
  ClusterEngine(const Model& model, const TrainData& data,
                const ScaleContext& scale, const ClusterEngineOptions& opts);
  ~ClusterEngine() override;

  std::string name() const override;
  Arch arch() const override { return Arch::kCluster; }
  Update update() const override {
    return opts_.sync == ClusterSync::kPs ? Update::kAsync : Update::kSync;
  }

  double run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) override;
  const CostBreakdown& last_cost() const override { return cost_paper_; }

  /// Forwards to the inner sync engine too (all-reduce mode), so its
  /// pool/kernel instrumentation lands in the same session.
  void set_telemetry(
      std::shared_ptr<telemetry::TelemetrySession> s) override;

  std::size_t nodes() const { return nodes_; }
  ClusterSync sync() const { return opts_.sync; }
  const NetModel& net() const { return net_; }
  /// PS-mode simulator (null in all-reduce mode).
  const ClusterSim* sim() const { return sim_.get(); }
  /// Cluster event ledger of the last epoch.
  const ClusterEpochStats& last_stats() const { return stats_; }
  /// Modeled network seconds of the last epoch.
  double last_net_seconds() const { return last_net_seconds_; }

  /// Attribution seam (DESIGN.md §18): the exposed network/stall share
  /// of the last epoch's modeled seconds.
  EpochSplit last_epoch_split() const override { return last_split_; }
  ThreadPool* pool() const override;

 private:
  double ps_epoch(std::span<real_t> w, real_t alpha, Rng& rng);
  double allreduce_epoch(std::span<real_t> w, real_t alpha, Rng& rng);

  const Model& model_;
  const TrainData& data_;
  ScaleContext scale_;
  ClusterEngineOptions opts_;
  std::size_t nodes_;
  NetModel net_;
  std::unique_ptr<ClusterSim> sim_;   ///< PS mode
  std::unique_ptr<SyncEngine> sync_;  ///< all-reduce mode
  CostBreakdown cost_paper_;
  ClusterEpochStats stats_;
  double last_net_seconds_ = 0;
  EpochSplit last_split_;
};

}  // namespace parsgd
