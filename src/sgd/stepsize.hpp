// Step-size selection (paper §IV-A): grid the step size in powers of 10
// and pick the value with the fastest time to convergence. Two-phase to
// keep the search affordable: a short probe run prunes the grid to the
// best few candidates, which are then run to full length. Every run of a
// phase is an independent seeded run, so a phase can run its runs
// concurrently on a pool with outputs bit-identical to the serial search.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sgd/convergence.hpp"
#include "sgd/engine.hpp"

namespace parsgd {

class ThreadPool;

struct StepSearchOptions {
  std::vector<double> grid = {1e-6, 1e-5, 1e-4, 1e-3,
                              1e-2, 1e-1, 1.0,  10.0, 100.0};
  std::size_t probe_epochs = 25;
  std::size_t keep_candidates = 3;
  std::size_t full_epochs = 200;
  double target_fraction = 0.01;  ///< converge-to within this of optimum
  TrainOptions train;             ///< base training options
  /// Names the configuration in diagnostics (conventionally the engine
  /// spec string) so an all-candidates-diverged WARN identifies which
  /// sweep cell produced the +inf optimum.
  std::string label;
  /// Runs each phase's runs concurrently on this pool's workers plus the
  /// calling thread; nullptr runs them serially on the caller. Each
  /// concurrent run gets its own worker-less executor and its metric
  /// updates are replayed in run order, so results and telemetry
  /// aggregates are bit-identical to the serial search. A failing run
  /// lets the runs in flight finish, then its exception is rethrown — the
  /// lowest-index failure, the one a serial search would hit first.
  ThreadPool* pool = nullptr;
};

struct StepSearchResult {
  double alpha = 0;
  RunResult run;                  ///< the winning full-length run
  std::vector<double> probed;     ///< grid values actually probed
  /// Lowest loss across *all* full-length candidate runs (the
  /// family-level optimum used as the convergence reference).
  double optimum = 0;
  /// True when every probe diverged immediately: no candidate survived to
  /// phase 2. `run` is then an empty diverged run, `alpha` is 0 and
  /// `optimum` is +inf, so a Study sweep can report the configuration
  /// diverged and move on instead of aborting.
  bool failed = false;
  /// Grid values whose probe diverged immediately (subset of `probed`).
  std::vector<double> diverged_probes;
};

/// `make_run(alpha, epochs, executor)` must execute a fresh training run,
/// with every pool job it makes on `executor` when that is non-null (the
/// run's private executor in a concurrent search; null in a serial one).
/// It must be safe to call concurrently when `StepSearchOptions::pool` is
/// set. The search owns candidate selection: probe everything briefly,
/// run the `keep_candidates` best losses fully, then pick the alpha
/// reaching within target_fraction of the best observed loss in the
/// fewest epochs (ties broken by lower final loss).
using StepRunFn = std::function<RunResult(double alpha, std::size_t epochs,
                                          ThreadPool* executor)>;
StepSearchResult search_step_size(const StepRunFn& make_run,
                                  const StepSearchOptions& opts = {});

}  // namespace parsgd
