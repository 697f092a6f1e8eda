// FaultInjector — executes a FaultPlan against a running engine.
//
// One injector lives in every Engine (sgd/engine.hpp); make_engine installs
// the spec's plan after construction. Engines call the hooks from their
// run_epoch paths; every hook is a no-op returning immediately when no plan
// is installed, so baseline trajectories are bit-identical — the injector
// never draws from the training stream.
//
// One-shot events (corruption, crash) latch a fired flag, so a
// watchdog rollback past the fault re-runs the epoch clean — exactly the
// transient-fault model the recovery machinery is meant to absorb.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>

#include "faults/fault_plan.hpp"
#include "matrix/types.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

/// How often each fault class actually fired (visible in tests/CLI).
struct FaultCounters {
  std::size_t corruptions = 0;  ///< NaN/Inf update corruptions
};

class FaultInjector {
 public:
  /// Installs `plan` and rewinds the epoch and step clocks.
  void install(const FaultPlan& plan);

  bool active() const { return active_ && !suspended_; }
  const FaultPlan& plan() const { return plan_; }
  FaultCounters counters() const;

  /// Temporarily silences every hook (cost-probe epochs must not consume
  /// one-shot faults).
  void set_suspended(bool on) { suspended_ = on; }

  /// Mirrors every fault firing into `faults.*` counters and (in trace
  /// mode) instant events, so injections are visible on the same timeline
  /// as the work they perturb. Null detaches. Engine::set_telemetry
  /// forwards here; the session must outlive the injector's hooks.
  void set_telemetry(telemetry::TelemetrySession* session);

  /// Repositions the epoch clock (run start, rollback, resume). Fired
  /// one-shot flags stay latched: a fault is transient, not replayed.
  void seek_epoch(std::size_t epoch);

  /// Epoch-start hook: throws CrashFault at the planned crash epoch.
  /// Advances the epoch clock.
  void begin_epoch();

  /// Update-step hooks: advance the run-global step counter by 1 / `steps`
  /// and, when the counter crosses the planned corruption step, poison all
  /// of `w` with NaN/Inf (one-shot).
  void after_update(std::span<real_t> w) { after_updates(1, w); }
  void after_updates(std::size_t steps, std::span<real_t> w);

 private:
  FaultPlan plan_;
  bool active_ = false;
  bool suspended_ = false;

  std::size_t epoch_ = 0;
  std::size_t step_ = 0;
  bool corrupt_fired_ = false;
  bool crash_fired_ = false;

  // The counter is atomic: after_update runs inside step-path graph
  // tasks on pool workers while the driving thread may read counters()
  // (relaxed — it is a statistic, not synchronization).
  std::atomic<std::size_t> corruptions_{0};

  /// Telemetry mirror, cached on set_telemetry (called while no epoch is
  /// running; graph tasks see the write through the graph run's
  /// happens-before). Null when detached.
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* c_crashes_ = nullptr;
  telemetry::Counter* c_corruptions_ = nullptr;
};

}  // namespace parsgd
