#include "sgd/stepsize.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>

#include "common/check.hpp"
#include "common/log.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace parsgd {

namespace {

/// One phase of the search: make_run(alphas[i], epochs) for every i, in
/// index order. With a pool the runs execute concurrently (see
/// StepSearchOptions::pool) and the results are the serial ones.
std::vector<RunResult> run_phase(const StepRunFn& make_run,
                                 const std::vector<double>& alphas,
                                 std::size_t epochs, ThreadPool* pool) {
  const std::size_t n = alphas.size();
  std::vector<RunResult> runs(n);
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      runs[i] = make_run(alphas[i], epochs, nullptr);
    }
    return runs;
  }
  std::vector<telemetry::MetricLog> logs(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> first_failed{n};
  pool->run_on_all_with_caller([&](std::size_t) {
    // Runs are claimed in index order, so every run below a failing one
    // has already been claimed and finishes; later ones are not started.
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (i > first_failed.load()) break;
      ThreadPool executor{ThreadPool::NoWorkers{}};
      const telemetry::MetricLog::Scope scope(logs[i]);
      try {
        runs[i] = make_run(alphas[i], epochs, &executor);
      } catch (...) {
        errors[i] = std::current_exception();
        std::size_t cur = first_failed.load();
        while (i < cur && !first_failed.compare_exchange_weak(cur, i)) {
        }
      }
    }
  });
  // Replay up to (and including) the serial search's failure point.
  const std::size_t failed = first_failed.load();
  for (std::size_t i = 0; i < n && i <= failed; ++i) logs[i].replay();
  if (failed < n) std::rethrow_exception(errors[failed]);
  return runs;
}

}  // namespace

StepSearchResult search_step_size(const StepRunFn& make_run,
                                  const StepSearchOptions& opts) {
  PARSGD_CHECK(!opts.grid.empty());

  // Phase 1: short probes; rank by best loss achieved.
  struct Probe {
    double alpha;
    double best;
  };
  std::vector<Probe> probes;
  StepSearchResult result;
  const std::vector<RunResult> probe_runs =
      run_phase(make_run, opts.grid, opts.probe_epochs, opts.pool);
  for (std::size_t i = 0; i < opts.grid.size(); ++i) {
    const double alpha = opts.grid[i];
    const RunResult& r = probe_runs[i];
    result.probed.push_back(alpha);
    if (r.diverged && r.losses.size() <= 2) {  // hopeless
      result.diverged_probes.push_back(alpha);
      continue;
    }
    probes.push_back({alpha, r.best_loss()});
  }
  if (probes.empty()) {
    // Every probe diverged immediately. Report failure instead of
    // throwing so a sweep over many configurations can continue — but
    // loudly: a +inf optimum silently poisons downstream convergence
    // references, so name the offending configuration.
    PARSGD_WARN << "step-size search: every probe diverged"
                << (opts.label.empty() ? "" : " for '" + opts.label + "'")
                << " (grid " << opts.grid.front() << ".." << opts.grid.back()
                << "); reporting diverged with +inf optimum";
    result.failed = true;
    result.run.diverged = true;
    result.optimum = std::numeric_limits<double>::infinity();
    return result;
  }
  std::sort(probes.begin(), probes.end(),
            [](const Probe& a, const Probe& b) { return a.best < b.best; });
  probes.resize(std::min(probes.size(), opts.keep_candidates));

  // Phase 2: full runs of the candidates.
  std::vector<double> alphas;
  for (const auto& p : probes) alphas.push_back(p.alpha);
  std::vector<RunResult> full =
      run_phase(make_run, alphas, opts.full_epochs, opts.pool);
  const double optimum = optimal_loss(full);
  result.optimum = optimum;

  // Pick: fewest epochs to within target_fraction of the optimum; if none
  // reach it, lowest final best loss.
  std::size_t best_idx = 0;
  std::size_t best_epochs = std::numeric_limits<std::size_t>::max();
  double best_loss_val = std::numeric_limits<double>::infinity();
  bool any_reached = false;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const ConvergencePoint p =
        convergence_point(full[i], optimum, opts.target_fraction);
    if (p.reached) {
      if (!any_reached || p.epochs < best_epochs) {
        any_reached = true;
        best_epochs = p.epochs;
        best_idx = i;
      }
    } else if (!any_reached && full[i].best_loss() < best_loss_val) {
      best_loss_val = full[i].best_loss();
      best_idx = i;
    }
  }
  result.alpha = alphas[best_idx];
  result.run = std::move(full[best_idx]);
  return result;
}

}  // namespace parsgd
