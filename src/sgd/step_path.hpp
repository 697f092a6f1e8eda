// The shared synchronized-mini-batch epoch runner (DESIGN.md §15): one
// implementation of "shuffled batches, one model update per batch". The
// whole epoch is built as one TaskGraph — gradient chunks, fixed-order
// partial reductions and the model update of each batch as dependent
// tasks, the update of batch k being the only dependency of batch k+1's
// chunks. No per-batch barrier; independent work from consecutive batches
// overlaps. Trajectories are bit-identical across worker counts (fixed
// decomposition grid) and run-to-run; below the decomposition floor each
// batch is one batch_step task, bit-identical to a plain batch_step loop.
//
// SyncEngine runs its minibatch epochs through this.
#pragma once

#include <cstddef>
#include <span>

#include "common/rng.hpp"
#include "models/model.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

class ThreadPool;

struct MinibatchEpochOptions {
  std::size_t minibatch = 0;  ///< examples per update (must be > 0)
  bool use_dense = false;
  /// Execution pool; nullptr = the process-global pool.
  ThreadPool* pool = nullptr;
};

/// Runs one synchronized mini-batch epoch in place on `w`: every example
/// is visited once, batches in an rng-shuffled order, one model update
/// per batch. `telemetry` (optional) feeds the "sync.updates" counter,
/// added once per epoch.
void run_minibatch_epoch(const Model& model, const TrainData& data,
                         real_t alpha, std::span<real_t> w, Rng& rng,
                         telemetry::TelemetrySession* telemetry,
                         const MinibatchEpochOptions& opts);

}  // namespace parsgd
