#include "sgd/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/checkpoint.hpp"

namespace parsgd {

const char* to_string(Arch a) {
  switch (a) {
    case Arch::kCpuSeq: return "cpu-seq";
    case Arch::kCpuPar: return "cpu-par";
    case Arch::kGpu: return "gpu";
  }
  return "?";
}

const char* to_string(Update u) {
  return u == Update::kSync ? "sync" : "async";
}

double Engine::epoch_seconds(std::span<const real_t> w_sample) {
  std::vector<real_t> scratch(w_sample.begin(), w_sample.end());
  Rng rng(0);
  return run_epoch(scratch, real_t(0), rng);
}

double RunResult::best_loss() const {
  double best = initial_loss;
  for (const double l : losses) best = std::min(best, l);
  return best;
}

double RunResult::seconds_per_epoch() const {
  if (epoch_seconds.empty()) return 0;
  return total_seconds() / static_cast<double>(epoch_seconds.size());
}

RunResult run_training(Engine& engine, const Model& model,
                       const TrainData& data, std::span<const real_t> w0,
                       real_t alpha, const TrainOptions& opts) {
  PARSGD_CHECK(w0.size() == model.dim());
  std::vector<real_t> w(w0.begin(), w0.end());
  Rng rng(opts.seed);
  ThreadPool* const pool = engine.pool();  // null: the engine runs serially
  // The last epoch's margin pass (DESIGN.md §9): it supplies that epoch's
  // loss and the next epoch's forward pass. Cleared whenever this loop
  // writes w itself, and settled before it reads w; a resumed run starts
  // without one.
  EpochCarry carry;

  RunResult res;
  std::size_t start_epoch = 0;
  double alpha_scale = 1.0;
  std::size_t recoveries_used = 0;

  if (opts.resume != nullptr) {
    PARSGD_CHECK(opts.resume->w.size() == model.dim(),
                 "checkpoint weight count " << opts.resume->w.size()
                                            << " != model dim "
                                            << model.dim());
    w = opts.resume->w;
    rng.set_state(opts.resume->rng);
    res = opts.resume->partial;
    start_epoch = opts.resume->next_epoch;
    alpha_scale = opts.resume->alpha_scale;
    recoveries_used = opts.resume->recoveries_used;
  } else {
    res.initial_loss = model.dataset_loss(data, w, opts.prefer_dense, pool);
  }
  res.losses.reserve(opts.max_epochs);
  res.epoch_seconds.reserve(opts.max_epochs);

  telemetry::TelemetrySession* tel = engine.telemetry();

  // Divergence watchdog state (DESIGN.md §11): the last known-good
  // snapshot for rollbacks and the run's counters. Maintained only when
  // the watchdog is on: with it off, the loop below degenerates to the
  // plain epoch loop with bit-identical trajectories (alpha_scale stays
  // exactly 1.0, and multiplying by 1.0 is IEEE-exact).
  const bool guard = opts.watchdog;
  ResilienceStats stats;
  telemetry::Counter* c_recoveries = nullptr;
  telemetry::Counter* c_checkpoints = nullptr;
  telemetry::TraceRecorder* trace = nullptr;
  if (guard && tel != nullptr && tel->metrics_enabled()) {
    c_recoveries = &tel->metrics().counter("resilience.recoveries");
    c_checkpoints = &tel->metrics().counter("resilience.checkpoints");
    trace = tel->trace_enabled() ? &tel->trace() : nullptr;
  }
  struct Snapshot {
    std::vector<real_t> w;
    RngState rng;
    std::size_t epoch = 0;  ///< next epoch to run after a restore
    std::size_t n_losses = 0;
  };
  Snapshot good;
  if (guard) {
    good.w = w;
    good.rng = rng.state();
    good.epoch = start_epoch;
    good.n_losses = res.losses.size();
  }

  // Heartbeat bookkeeping (host wall time; see TrainOptions). Counts only
  // epochs finished in *this* call so the ETA stays honest on resume.
  const double hb_start = monotonic_seconds();
  double hb_last = hb_start;
  double ck_last = hb_start;
  std::size_t hb_epochs_done = 0;

  // Attribution ledger (DESIGN.md §18). Observation-only and off by
  // default: without opts.attribute the epoch path below is the seed's,
  // branch for branch.
  const bool ledger_on = opts.attribute;
  telemetry::AttributionLedger ledger;
  telemetry::Histogram* h_queue = nullptr;
  telemetry::Histogram* h_ready = nullptr;
  if (ledger_on && tel != nullptr && tel->metrics_enabled()) {
    h_queue = &tel->metrics().histogram("pool.queue_wait_ns");
    h_ready = &tel->metrics().histogram("graph.ready_wait_ns");
  }
  // Wait histograms sum *per-worker* waits that overlap in wall time; the
  // per-epoch delta is divided by the worker count of the engine's pool
  // to approximate the serial (critical-path) share.
  const double workers = static_cast<double>(
      std::max<std::size_t>(pool != nullptr ? pool->size() : 0, 1));
  double pending_recovery_s = 0;    // rollback/backoff time -> next epoch
  double pending_checkpoint_s = 0;  // checkpoint I/O -> next epoch

  const auto build_status = [&](double loss_now, double now) {
    telemetry::RunStatus st;
    st.engine = engine.name();
    st.epoch = static_cast<int>(res.losses.size());
    st.epochs_total = static_cast<int>(opts.max_epochs);
    st.loss = loss_now;
    if (hb_epochs_done > 0) {
      const double per_epoch =
          (now - hb_start) / static_cast<double>(hb_epochs_done);
      st.eta_s = per_epoch * static_cast<double>(
                                 opts.max_epochs - res.losses.size());
    }
    if (guard) {
      st.has_resilience = true;
      st.recoveries = stats.recoveries;
    }
    if (!ledger.empty()) {
      st.has_attribution = true;
      st.mean = ledger.mean();
    }
    return st;
  };

  std::size_t e = start_epoch;
  while (e < opts.max_epochs) {
    const real_t epoch_alpha =
        static_cast<real_t>(static_cast<double>(alpha) * alpha_scale);
    double secs, loss;
    double host_s = 0;
    double q0 = 0, r0 = 0;
    if (ledger_on) {
      if (h_queue != nullptr) q0 = h_queue->sum();
      if (h_ready != nullptr) r0 = h_ready->sum();
    }
    {
      // One span per epoch (run + loss evaluation), annotated with the
      // loss and the *modeled* epoch seconds — wall time is the span.
      PARSGD_TRACE_SPAN(span, tel, "epoch");
      span.arg("epoch", static_cast<double>(e));
      const double host_t0 = monotonic_seconds();
      secs = engine.run_epoch_carried(w, epoch_alpha, rng, carry);
      if (carry.matches(data, opts.prefer_dense)) {
        loss = carry.loss;
      } else {
        carry.settle(w);
        loss = model.dataset_loss(data, w, opts.prefer_dense, pool);
      }
      host_s = monotonic_seconds() - host_t0;
      span.arg("loss", loss);
      span.arg("modeled_s", secs);
    }

    const bool nonfinite = !std::isfinite(loss);
    const bool bad =
        nonfinite ||
        loss > opts.divergence_factor * std::max(res.initial_loss, 1e-12);

    if (guard && bad && recoveries_used < kWatchdogBudget) {
      // The whole rollback plus the rejected epoch itself is recovery
      // time: it bought no trajectory progress. Charged to the next
      // accepted epoch's record.
      const double rec_t0 = ledger_on ? monotonic_seconds() - host_s : 0;
      ++recoveries_used;
      ++stats.recoveries;
      if (c_recoveries != nullptr) c_recoveries->inc();
      if (trace != nullptr) {
        trace->instant("resilience.recover",
                       {{"epoch", static_cast<double>(e)}});
      }
      alpha_scale *= kWatchdogBackoff;
      res.recoveries.push_back({e, loss, alpha_scale,
                                nonfinite ? RecoveryReason::kNonFinite
                                          : RecoveryReason::kLossSpike});
      w = good.w;
      carry.clear();
      rng.set_state(good.rng);
      res.losses.resize(good.n_losses);
      res.epoch_seconds.resize(good.n_losses);
      e = good.epoch;
      if (ledger_on) pending_recovery_s += monotonic_seconds() - rec_t0;
      continue;
    }

    res.losses.push_back(loss);
    res.epoch_seconds.push_back(secs);
    ++hb_epochs_done;
    if (ledger_on) {
      telemetry::EpochAttribution ea;
      ea.epoch = static_cast<int>(e);
      ea.loss = loss;
      ea.modeled_s = secs;
      const Engine::EpochSplit split = engine.last_epoch_split();
      ea.m_net_s = split.net_s;
      ea.m_stall_s = split.stall_s;
      // Recovery/checkpoint time accrued since the last accepted epoch
      // extends this epoch's host budget (it happened on the wall clock
      // between the two accepts).
      ea.host_s = host_s + pending_recovery_s + pending_checkpoint_s;
      ea.h_recovery_s = pending_recovery_s;
      ea.h_checkpoint_s = pending_checkpoint_s;
      pending_recovery_s = 0;
      pending_checkpoint_s = 0;
      if (h_queue != nullptr) {
        ea.h_queue_s = (h_queue->sum() - q0) * 1e-9 / workers;
      }
      if (h_ready != nullptr) {
        ea.h_ready_s = (h_ready->sum() - r0) * 1e-9 / workers;
      }
      ledger.add(ea);
    }
    if (opts.heartbeat_seconds > 0) {
      const double now = monotonic_seconds();
      if (now - hb_last >= opts.heartbeat_seconds) {
        hb_last = now;
        PARSGD_INFO << telemetry::format_status_line(build_status(loss, now));
      }
    }
    if (bad) {
      res.diverged = true;
      break;
    }
    if (guard) {
      carry.settle(w);
      good.w = w;
      good.rng = rng.state();
      good.epoch = e + 1;
      good.n_losses = res.losses.size();
    }
    if (!opts.checkpoint_path.empty()) {
      bool due;
      if (opts.checkpoint_every_seconds > 0) {
        const double now = monotonic_seconds();
        due = now - ck_last >= opts.checkpoint_every_seconds;
        if (due) ck_last = now;
      } else {
        due = (e + 1) % std::max<std::size_t>(opts.checkpoint_every, 1) == 0;
      }
      if (due) {
        const double ck_t0 = ledger_on ? monotonic_seconds() : 0;
        TrainCheckpoint ck;
        ck.next_epoch = e + 1;
        ck.alpha_scale = alpha_scale;
        ck.recoveries_used = recoveries_used;
        ck.rng = rng.state();
        carry.settle(w);
        ck.w = w;
        ck.partial = res;
        save_checkpoint(opts.checkpoint_path, ck);
        if (guard) {
          ++stats.checkpoints;
          if (c_checkpoints != nullptr) c_checkpoints->inc();
        }
        if (ledger_on) pending_checkpoint_s += monotonic_seconds() - ck_t0;
      }
    }
    ++e;
  }
  res.alpha_scale = alpha_scale;
  if (ledger_on) res.attribution = ledger.epochs();
  res.resilience = stats;
  return res;
}

}  // namespace parsgd
