// Deterministic multi-node SGD simulator (DESIGN.md §17, "clustersim").
//
// Generalizes asyncsim's delayed-gradient interleaving from T threads on
// one cache-coherent machine to N nodes on a network. The dataset is
// sharded contiguously across nodes (data sharding); node-local units of
// work execute in a globally interleaved round-robin order, and each unit
// computes its gradient from a *stale* view of the parameter-server model:
//
//   staleness tau = (N - 1)            the other nodes' in-flight units
//                 + D_net              updates applied cluster-wide while
//                                      this unit's push+pull round trip
//                                      was on the wire, capped by the
//                                      bounded-delay queue (N*queue_depth)
//
// Each unit's actual delay is drawn uniformly from [0, tau] like asyncsim
// (racing nodes are desynchronized; a fixed lag resonates into limit
// cycles real clusters do not exhibit).
// Every unit is one gradient push + one weight pull on the wire; the sim
// ledgers the message count and payload bytes into CostBreakdown's net
// fields and NetModel converts them into seconds.
//
// There is no cross-node ConflictWindow: nodes share no cache, so the
// coherency-stall term of the single-machine model is zero — staleness is
// the only price of asynchrony here, which is exactly the regime shift
// the paper's crossover analysis predicts for distributed SGD.
//
// All-reduce mode needs no simulator: synchronous data-parallel SGD
// computes the same global gradient for any N, so ClusterEngine delegates
// that trajectory to the existing SyncEngine (sgd/cluster_engine.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "hwmodel/cost.hpp"
#include "models/model.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

class FaultInjector;

/// asyncsim's Hogwild inner-loop bookkeeping constants (calibrated to
/// Table III's cpu-seq rows), shared between the simulator's ledger and
/// the engine's analytic network-staleness derivation.
constexpr double kClusterLoopFlopsPerExample = 600.0;
constexpr double kClusterLoopFlopsPerNnz = 16.0;

struct ClusterSimOptions {
  /// Simulated nodes (clamped to the unit count per epoch).
  std::size_t nodes = 2;
  /// Examples per unit of work; a unit is also the push/pull granularity.
  std::size_t batch = 1;
  /// Updates applied cluster-wide during one push+pull round trip, as
  /// derived by the engine from the link model (before the queue cap).
  std::size_t net_delay_units = 0;
  /// Bounded-delay queue: at most this many updates in flight per node.
  /// Caps the network share of tau at nodes * queue_depth.
  std::size_t queue_depth = 4;
  /// Explicit staleness override (spec key delay=); replaces the whole
  /// (N-1) + D_net derivation when nonzero.
  std::size_t delay_override = 0;
  bool prefer_dense = false;
  /// Pool for batched units, each run as one task graph (batch_step_graph
  /// — bit-identical for every pool size; DESIGN.md §15). Cross-unit
  /// order is the staleness semantics and stays sequential. nullptr = the
  /// process-global pool.
  ThreadPool* pool = nullptr;
};

/// Per-epoch cluster event ledger (beyond the CostBreakdown).
struct ClusterEpochStats {
  double stale_units = 0;       ///< sum of actual per-unit delays
  double lost_units = 0;        ///< units dropped by a nodedown
  std::size_t node_downs = 0;   ///< nodedown events this epoch
};

/// Simulates parameter-server epochs of `model` over `data` sharded
/// across `nodes` simulated nodes.
class ClusterSim {
 public:
  /// "No node" sentinel for run_epoch's down_node parameter.
  static constexpr std::size_t kNoNode = ~std::size_t{0};

  ClusterSim(const Model& model, const TrainData& data,
             const ClusterSimOptions& opts);

  /// Runs one epoch in place on `w`. `down_node`, when not kNoNode, takes
  /// that node down for this epoch: the shard's units are lost for the
  /// epoch (fewer updates, counted in last_stats().lost_units). `faults`
  /// counts updates and corrupts the planned one exactly as in asyncsim.
  /// `telemetry` accumulates the epoch's cluster.* counters once per
  /// epoch from the ledger.
  CostBreakdown run_epoch(std::span<real_t> w, real_t alpha, Rng& rng,
                          FaultInjector* faults = nullptr,
                          telemetry::TelemetrySession* telemetry = nullptr,
                          std::size_t down_node = kNoNode);

  const ClusterEpochStats& last_stats() const { return stats_; }

  /// Units of work per epoch (fixed by n and batch).
  std::size_t units() const { return units_; }
  /// Nodes actually simulated (nodes clamped to the unit count).
  std::size_t nodes_eff() const { return nodes_eff_; }
  /// Resolved staleness bound in units.
  std::size_t tau() const { return tau_; }

 private:
  const Model& model_;
  const TrainData& data_;
  ClusterSimOptions opts_;
  std::size_t units_;
  std::size_t nodes_eff_;
  std::size_t tau_;
  ClusterEpochStats stats_;
};

}  // namespace parsgd
