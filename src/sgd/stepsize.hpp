// Step-size selection (paper §IV-A): grid the step size in powers of 10
// and pick the value with the fastest time to convergence. Two-phase to
// keep the search affordable: a short probe run prunes the grid to the
// best few candidates, which are then run to full length. Every run is an
// independent seeded run, so a batch of searches runs concurrently on a
// pool with outputs bit-identical to running the searches one by one.
#pragma once

#include <functional>
#include <span>
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
/// It must be safe to call concurrently when the search runs on a pool.
/// The search owns candidate selection: probe everything briefly, run the
/// `keep_candidates` best losses fully, then pick the alpha reaching
/// within target_fraction of the best observed loss in the fewest epochs
/// (ties broken by lower final loss).
using StepRunFn = std::function<RunResult(double alpha, std::size_t epochs,
                                          ThreadPool* executor)>;

/// One search of a batch.
struct StepSearch {
  StepRunFn make_run;
  StepSearchOptions opts;
};

/// Runs `searches` as one batch; returns their results in order. The
/// serial order is each search's probes, then its candidates, search after
/// search, and the results, metric aggregates and rethrown failure (the
/// lowest-index one, after the runs in flight return) are those of running
/// it in that order. With `pool` its workers and the caller each claim the
/// lowest-index ready run, each on its own worker-less executor: probes
/// are ready at once, a search's candidates once its probes finish.
std::vector<StepSearchResult> search_step_sizes(
    std::span<const StepSearch> searches, ThreadPool* pool = nullptr);

/// The one-search batch, run serially on the caller.
StepSearchResult search_step_size(const StepRunFn& make_run,
                                  const StepSearchOptions& opts = {});

}  // namespace parsgd
