#include "sgd/stepsize.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>

#include "common/check.hpp"
#include "common/log.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace parsgd {

namespace {

/// One search of a batch. Its runs hold serial indices [base, base +
/// grid + keep): the probes, then room for every candidate it may keep.
struct SearchState {
  const StepSearch* search;
  std::size_t base;
  std::size_t probes_left;
  std::vector<RunResult> runs;  ///< by index within the search
  std::vector<double> alphas;   ///< the candidates, ranked by probe loss
  StepSearchResult result;

  const StepSearchOptions& opts() const { return search->opts; }
  std::size_t n_probes() const { return search->opts.grid.size(); }
};

/// Ranks a search's finished probes: the `keep_candidates` best losses
/// become its candidates; a search whose probes all diverged keeps none.
void rank_probes(SearchState& st) {
  struct Probe {
    double alpha;
    double best;
  };
  std::vector<Probe> ranked;
  for (std::size_t i = 0; i < st.n_probes(); ++i) {
    const double alpha = st.opts().grid[i];
    const RunResult& r = st.runs[i];
    st.result.probed.push_back(alpha);
    if (r.diverged && r.losses.size() <= 2) {  // hopeless
      st.result.diverged_probes.push_back(alpha);
      continue;
    }
    ranked.push_back({alpha, r.best_loss()});
  }
  st.result.failed = ranked.empty();
  std::sort(ranked.begin(), ranked.end(),
            [](const Probe& a, const Probe& b) { return a.best < b.best; });
  ranked.resize(std::min(ranked.size(), st.opts().keep_candidates));
  for (const Probe& p : ranked) st.alphas.push_back(p.alpha);
}

/// Fills a ranked search's result from its full runs.
void pick(SearchState& st) {
  StepSearchResult& result = st.result;
  const StepSearchOptions& opts = st.opts();
  if (result.failed) {
    // Every probe diverged immediately. Report failure instead of
    // throwing so a sweep over many configurations can continue — but
    // loudly: a +inf optimum silently poisons downstream convergence
    // references, so name the offending configuration.
    PARSGD_WARN << "step-size search: every probe diverged"
                << (opts.label.empty() ? "" : " for '" + opts.label + "'")
                << " (grid " << opts.grid.front() << ".." << opts.grid.back()
                << "); reporting diverged with +inf optimum";
    result.run.diverged = true;
    result.optimum = std::numeric_limits<double>::infinity();
    return;
  }
  const std::span<RunResult> full =
      std::span(st.runs).subspan(st.n_probes(), st.alphas.size());
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
  result.alpha = st.alphas[best_idx];
  result.run = std::move(full[best_idx]);
}

}  // namespace

std::vector<StepSearchResult> search_step_sizes(
    std::span<const StepSearch> searches, ThreadPool* pool) {
  std::vector<SearchState> states;
  std::vector<std::size_t> owner;  ///< serial index -> search
  std::vector<bool> ready;         ///< claimable; guarded by `mu`
  for (const StepSearch& s : searches) {
    PARSGD_CHECK(!s.opts.grid.empty());
    const std::size_t probes = s.opts.grid.size();
    const std::size_t slots =
        probes + std::min(probes, s.opts.keep_candidates);
    states.push_back(
        {&s, owner.size(), probes, std::vector<RunResult>(slots), {}, {}});
    owner.insert(owner.end(), slots, states.size() - 1);
    ready.insert(ready.end(), probes, true);
    ready.insert(ready.end(), slots - probes, false);
  }
  const std::size_t n = ready.size();
  std::vector<telemetry::MetricLog> logs(pool != nullptr ? n : 0);
  std::vector<std::exception_ptr> errors(n);
  std::size_t failed = n;  ///< lowest failed index
  std::size_t in_flight = 0;
  std::mutex mu;  ///< guards ready, failed, in_flight, errors and states
  std::condition_variable changed;

  const auto participate = [&] {
    std::unique_lock lock(mu);
    for (;;) {
      // Claim the lowest ready run below the failure point. With none,
      // a run in flight may still release candidates: wait for it.
      std::size_t i = 0;
      while (i < failed && !ready[i]) ++i;
      if (i == failed) {
        if (in_flight == 0) return;
        changed.wait(lock);
        continue;
      }
      ready[i] = false;
      ++in_flight;
      SearchState& st = states[owner[i]];
      const std::size_t k = i - st.base;
      const bool probe = k < st.n_probes();
      const double alpha =
          probe ? st.opts().grid[k] : st.alphas[k - st.n_probes()];
      const std::size_t epochs =
          probe ? st.opts().probe_epochs : st.opts().full_epochs;
      lock.unlock();

      RunResult r;
      std::exception_ptr error;
      try {
        if (pool == nullptr) {
          r = st.search->make_run(alpha, epochs, nullptr);
        } else {
          ThreadPool executor{ThreadPool::NoWorkers{}};
          const telemetry::MetricLog::Scope scope(logs[i]);
          r = st.search->make_run(alpha, epochs, &executor);
        }
      } catch (...) {
        error = std::current_exception();
      }

      lock.lock();
      --in_flight;
      st.runs[k] = std::move(r);
      if (error) {
        errors[i] = error;
        failed = std::min(failed, i);
      } else if (probe && --st.probes_left == 0) {
        rank_probes(st);
        for (std::size_t c = 0; c < st.alphas.size(); ++c) {
          ready[st.base + st.n_probes() + c] = true;
        }
      }
      changed.notify_all();
    }
  };
  if (pool == nullptr) {
    participate();
  } else {
    pool->run_on_all_with_caller([&](std::size_t) { participate(); });
  }

  // Replay up to (and including) the serial batch's failure point.
  for (std::size_t i = 0; i < logs.size() && i <= failed; ++i) {
    logs[i].replay();
  }
  std::vector<StepSearchResult> results;
  for (SearchState& st : states) {
    // On a failure only the searches the serial batch ranked before it
    // report, so an all-diverged grid among them still warns.
    if (st.base + st.n_probes() > failed) break;
    if (failed == n || st.result.failed) pick(st);
    results.push_back(std::move(st.result));
  }
  if (failed < n) std::rethrow_exception(errors[failed]);
  return results;
}

StepSearchResult search_step_size(const StepRunFn& make_run,
                                  const StepSearchOptions& opts) {
  const StepSearch search{make_run, opts};
  return search_step_sizes({&search, 1}).front();
}

}  // namespace parsgd
