// FaultInjector — executes a FaultPlan against a running engine.
//
// One injector lives in every Engine (sgd/engine.hpp); make_engine installs
// the context/spec plan after construction. Engines call the hooks from
// their run_epoch paths; every hook is a no-op returning immediately when
// no plan is installed, so baseline trajectories are bit-identical — the
// injector owns a private Rng and never draws from the training stream.
//
// One-shot events (corruption, bit flip, crash) latch a fired flag, so a
// watchdog rollback past the fault re-runs the epoch clean — exactly the
// transient-fault model the recovery machinery is meant to absorb.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "matrix/types.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

class ThreadPool;

/// How often each fault class actually fired (visible in tests/CLI).
struct FaultCounters {
  std::size_t corruptions = 0;  ///< NaN/Inf update corruptions
  std::size_t bitflips = 0;     ///< weight bit flips
  std::size_t stragglers = 0;   ///< straggler delays applied
  std::size_t dropped = 0;      ///< updates computed then discarded
  std::size_t node_downs = 0;   ///< cluster node failures served
};

class FaultInjector {
 public:
  /// Installs `plan`; `seed` decorrelates fault draws from the run seed.
  void install(const FaultPlan& plan, std::uint64_t seed);

  bool active() const { return active_ && !suspended_; }
  const FaultPlan& plan() const { return plan_; }
  FaultCounters counters() const;

  /// Temporarily silences every hook (cost-probe epochs must not consume
  /// one-shot faults or fault-rng draws).
  void set_suspended(bool on) { suspended_ = on; }

  /// Mirrors every fault firing into `faults.*` counters and (in trace
  /// mode) instant events, so injections are visible on the same timeline
  /// as the work they perturb. Null detaches. Engine::set_telemetry
  /// forwards here; the session must outlive the injector's hooks.
  void set_telemetry(telemetry::TelemetrySession* session);

  /// Repositions the epoch clock (run start, rollback, resume). Fired
  /// one-shot flags stay latched: a fault is transient, not replayed.
  void seek_epoch(std::size_t epoch);

  /// Epoch-start hook: throws CrashFault at the planned crash epoch and
  /// applies the one-shot weight bit flip. Advances the epoch clock.
  void begin_epoch(std::span<real_t> w);

  /// Update-step hooks: advance the run-global step counter by 1 / `steps`
  /// and, when the counter crosses the planned corruption step, poison all
  /// of `w` with NaN/Inf (one-shot).
  void after_update(std::span<real_t> w) { after_updates(1, w); }
  void after_updates(std::size_t steps, std::span<real_t> w);

  /// "No node" result of node_down_this_epoch().
  static constexpr std::size_t kNoNode = ~std::size_t{0};

  /// One-shot cluster node failure (nodedown@E[:K]): returns the downed
  /// node's index when the epoch that begin_epoch just started is the
  /// planned one, kNoNode otherwise. Shares the epoch clock with
  /// begin_epoch — cluster engines call it right after begin_epoch, once
  /// per epoch.
  std::size_t node_down_this_epoch();

  /// True when this update should be computed but discarded: a lost
  /// update (drop=P).
  bool drop_update();

  /// Extra staleness (in units) for the next async unit; 0 = on time.
  std::size_t straggle_units();

  /// Stateless per-chunk straggler decision for thread-pool hooks: pure
  /// hash of (seed, chunk), safe from any worker thread. Callers that act
  /// on it report via note_chunk_straggled().
  bool chunk_straggles(std::size_t chunk) const;
  void note_chunk_straggled() { stragglers_.fetch_add(1); }

  /// ThreadPool chunk / TaskGraph task hook: delays straggling chunks by
  /// a real sleep (execution-only — their reductions are deterministic,
  /// so the trajectory is unchanged; only wall time and counters move).
  void chunk_hook(std::size_t chunk);

  /// Straggle delay actually applied, in microseconds,
  /// accumulated across all chunk hooks since install/reset. The
  /// attribution ledger reads per-epoch deltas of this for its host
  /// stall bucket.
  double applied_straggle_us() const {
    return straggle_us_.load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  bool active_ = false;
  bool suspended_ = false;
  Rng rng_{0};
  std::uint64_t seed_ = 0;

  std::size_t epoch_ = 0;
  std::size_t step_ = 0;
  bool corrupt_fired_ = false;
  bool flip_fired_ = false;
  bool crash_fired_ = false;
  bool nodedown_fired_ = false;

  // All counters are atomic: graph-mode tasks and pool chunk hooks can
  // bump or read them from worker threads while the driving thread reads
  // counters() (relaxed — they are statistics, not synchronization).
  std::atomic<std::size_t> corruptions_{0};
  std::atomic<std::size_t> bitflips_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> stragglers_{0};  ///< bumped from pool workers
  std::atomic<double> straggle_us_{0};      ///< applied straggle (pool workers)
  std::atomic<std::size_t> node_downs_{0};

  /// Telemetry mirror, cached on set_telemetry (called while no epoch is
  /// running; pool workers see the write via the chunk-hook install's
  /// mutex). Null when detached.
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* c_crashes_ = nullptr;
  telemetry::Counter* c_bitflips_ = nullptr;
  telemetry::Counter* c_corruptions_ = nullptr;
  telemetry::Counter* c_dropped_ = nullptr;
  telemetry::Counter* c_stragglers_ = nullptr;
  telemetry::Counter* c_node_downs_ = nullptr;
};

/// RAII installer of the straggler chunk hook on a pool for the duration
/// of one epoch. A no-op (no hook, no clearing) unless the injector has an
/// active straggler plan, so baseline epochs never touch the pool.
class ChunkHookGuard {
 public:
  ChunkHookGuard(ThreadPool& pool, FaultInjector& faults);
  ~ChunkHookGuard();

  ChunkHookGuard(const ChunkHookGuard&) = delete;
  ChunkHookGuard& operator=(const ChunkHookGuard&) = delete;

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace parsgd
