// Deterministic asynchronous-execution simulator for CPU Hogwild and
// Hogbatch (DESIGN.md §2, "asyncsim").
//
// Real Hogwild's statistical behaviour comes from two mechanisms: workers
// read *stale* model values, and concurrent writes to the same entries
// collide. Physical thread racing is not required to reproduce either —
// what matters is the interleaving pattern. We therefore execute T logical
// workers in deterministic rounds ("windows"):
//
//  * Snapshot mode (dense/small models, and Hogbatch): at each window every
//    worker copies the shared model, advances `window_units` units of work
//    against its private copy (seeing its own updates immediately, others'
//    only at window boundaries), and the additive deltas are merged back.
//    Staleness grows with worker count — the paper's dense-data
//    statistical degradation (Table III covtype/w8a) emerges naturally.
//  * In-place mode (large sparse models): workers interleave directly on
//    the shared model (updates visible immediately). For sparse data this
//    matches real Hogwild, whose collisions are rare; the window only
//    delimits conflict accounting.
//
// In both modes, writes are tracked at cache-line granularity (64 B) and
// cross-worker collisions within a window are counted as write_conflicts —
// the quantity the CPU cost model converts into coherency stall time.
#pragma once

#include <span>

#include "asyncsim/conflict_ledger.hpp"
#include "common/rng.hpp"
#include "hwmodel/cost.hpp"
#include "models/model.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

class FaultInjector;

struct AsyncSimOptions {
  int workers = 1;
  /// Units of work (examples, or batches in hogbatch mode) each worker
  /// advances per window — the staleness horizon.
  std::size_t window_units = 4;
  /// Examples per unit: 1 = incremental Hogwild; >1 = Hogbatch.
  std::size_t batch = 1;
  /// Gradient delay in units for the delayed-gradient (snapshot-mode)
  /// simulation. 0 = auto (workers - 1, the physical in-flight count).
  /// Hogbatch at scaled-down N sets this to preserve the paper's
  /// in-flight *fraction* of an epoch (see core/study.cpp).
  std::size_t delay_units = 0;
  /// Force snapshot mode regardless of model size (tests).
  bool force_snapshots = false;
  bool prefer_dense = false;
  /// Models at most this big (bytes) use snapshot mode when updates are
  /// sparse; dense-update models always snapshot.
  std::size_t snapshot_budget_bytes = 1u << 18;
  /// Execution pool for Hogbatch units (batch > 1), each run as one task
  /// graph (batch_step_graph, bit-identical across pool sizes). Units
  /// still execute in the simulator's deterministic interleaved order —
  /// cross-unit order *is* the staleness semantics — so the graph covers
  /// only the intra-unit work (DESIGN.md §15). nullptr = the
  /// process-global pool.
  ThreadPool* pool = nullptr;
};

/// Simulates asynchronous epochs of `model` over `data`.
class AsyncSim {
 public:
  AsyncSim(const Model& model, const TrainData& data,
           const AsyncSimOptions& opts);

  /// Runs one epoch in place on `w`; every example is visited once.
  /// Returns the work/conflict ledger of the epoch. `faults`, when
  /// non-null, counts every unit's update and corrupts the planned one
  /// (nan@K / inf@K, DESIGN.md §11).
  /// `telemetry`, when non-null with metrics on, accumulates the epoch's
  /// async.updates / async.stale_units / async.write_conflicts counters
  /// (recorded once per epoch from the ledger — no hot-loop cost, and
  /// the trajectory is untouched).
  CostBreakdown run_epoch(std::span<real_t> w, real_t alpha, Rng& rng,
                          FaultInjector* faults = nullptr,
                          telemetry::TelemetrySession* telemetry = nullptr);

  /// True if this configuration interleaves through model snapshots.
  bool snapshot_mode() const { return snapshot_mode_; }

 private:
  CostBreakdown epoch_snapshot(std::span<real_t> w, real_t alpha, Rng& rng,
                               FaultInjector* faults,
                               telemetry::TelemetrySession* telemetry);
  CostBreakdown epoch_inplace(std::span<real_t> w, real_t alpha, Rng& rng,
                              FaultInjector* faults,
                              telemetry::TelemetrySession* telemetry);

  const Model& model_;
  const TrainData& data_;
  AsyncSimOptions opts_;
  bool snapshot_mode_;
  /// Sum of actual per-unit delays of the last epoch (snapshot mode);
  /// run_epoch folds it into async.stale_units.
  double last_stale_units_ = 0;
  /// Write-conflict windows, reused across epochs.
  ConflictLedger ledger_;
};

}  // namespace parsgd
