// Engine abstraction: one (architecture x update-strategy x layout)
// configuration of the paper's Fig. 1 cube, runnable epoch by epoch.
//
// run_epoch mutates the model parameters functionally (real algorithm,
// real statistical efficiency) and returns the *modeled* wall time of that
// epoch at paper scale (DESIGN.md §5): CostBreakdowns measured on the
// scaled run are extrapolated by paper_N / actual_N and converted with the
// CPU cost model or the GPU cycle model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "models/model.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

namespace gpusim {
class Device;
}

class ThreadPool;

struct TrainCheckpoint;

enum class Arch { kCpuSeq, kCpuPar, kGpu };
enum class Update { kSync, kAsync };

const char* to_string(Arch a);
const char* to_string(Update u);

class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;
  virtual Arch arch() const = 0;
  virtual Update update() const = 0;

  /// Runs one optimization epoch in place on `w`; returns modeled seconds
  /// for the epoch at paper scale.
  virtual double run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) = 0;

  /// run_epoch that may also consume and restage `carry`, the margin
  /// pass of the updated `w` (DESIGN.md §9); run_training's epoch loop
  /// calls this. The default clears the carry: only full-batch linear
  /// sync epochs stage one.
  virtual double run_epoch_carried(std::span<real_t> w, real_t alpha,
                                   Rng& rng, EpochCarry& carry) {
    carry.clear();
    return run_epoch(w, alpha, rng);
  }

  /// Modeled seconds of one epoch without advancing caller-visible state:
  /// the default runs a throwaway zero-step epoch on a copy of `w_sample`
  /// (epoch costs are parameter-value independent). Engines with a cheap
  /// instrumented path override this.
  virtual double epoch_seconds(std::span<const real_t> w_sample);

  /// Work/conflict counters of the last epoch (paper-scale).
  virtual const CostBreakdown& last_cost() const = 0;

  /// Modeled-time decomposition of the last epoch for the attribution
  /// ledger (DESIGN.md §18): exposed (critical-path) network seconds and
  /// stall seconds; compute is the residual against run_epoch's return.
  /// No engine models network or stall time, so every split is zeros
  /// (all compute) until the paper's cost classes replace it (ROADMAP 6.2).
  struct EpochSplit {
    double net_s = 0;
    double stall_s = 0;
  };
  virtual EpochSplit last_epoch_split() const { return {}; }

  /// Attaches a telemetry session (DESIGN.md §12); make_engine does this
  /// after construction. Null detaches. With no session (the default)
  /// every instrumented path is one untaken branch and trajectories are
  /// bit-identical to an uninstrumented build.
  virtual void set_telemetry(std::shared_ptr<telemetry::TelemetrySession> s) {
    telemetry_ = std::move(s);
  }
  telemetry::TelemetrySession* telemetry() const { return telemetry_.get(); }

  /// The pool this engine's epochs execute on (its options' pool, else
  /// the process-global one), or null for an engine that runs serially
  /// on the calling thread. run_training evaluates the loss there too.
  virtual ThreadPool* pool() const { return nullptr; }

  /// The simulated GPU this engine runs on, or null for CPU engines.
  /// Reports harvest the per-kernel stats breakdown through this.
  virtual const gpusim::Device* device() const { return nullptr; }

 protected:
  /// Shared with EngineContext (or standalone); null when telemetry=off.
  std::shared_ptr<telemetry::TelemetrySession> telemetry_;
};

/// Why the divergence watchdog rejected an epoch.
enum class RecoveryReason : std::uint8_t {
  kNonFinite = 0,  ///< loss went NaN/Inf
  kLossSpike = 1,  ///< loss exceeded the divergence threshold
};

/// Watchdog counters for one run_training call (all zero when the
/// watchdog is off); surfaced on RunResult and the RunReport
/// `resilience` slice. Not checkpointed: a resumed run restarts them.
struct ResilienceStats {
  std::size_t recoveries = 0;   ///< rollback+retry events
  std::size_t checkpoints = 0;  ///< checkpoints written

  bool any() const { return recoveries > 0 || checkpoints > 0; }
};

/// One watchdog rollback: epoch `epoch` produced `bad_loss`, the run was
/// rolled back to the last good snapshot and continued with the step size
/// scaled to `alpha_scale_after`.
struct RecoveryEvent {
  std::size_t epoch = 0;
  double bad_loss = 0;
  double alpha_scale_after = 1.0;
  RecoveryReason reason = RecoveryReason::kNonFinite;
};

/// A full training run: per-epoch losses and modeled times.
struct RunResult {
  std::vector<double> losses;         ///< loss after epoch e (sum over examples)
  std::vector<double> epoch_seconds;  ///< modeled seconds of epoch e
  double initial_loss = 0;
  bool diverged = false;
  /// Watchdog rollbacks, in order (empty when the watchdog is off or
  /// never fired).
  std::vector<RecoveryEvent> recoveries;
  /// Final step-size scale after watchdog backoffs (1.0 = untouched).
  double alpha_scale = 1.0;
  /// Watchdog counters for the run (all zero when the watchdog is off).
  ResilienceStats resilience;
  /// Per-epoch time-budget ledger (DESIGN.md §18). Empty unless
  /// TrainOptions::attribute is set; covers only the epochs of *this*
  /// call on resume.
  std::vector<telemetry::EpochAttribution> attribution;

  std::size_t epochs() const { return losses.size(); }
  double total_seconds() const {
    double t = 0;
    for (const double s : epoch_seconds) t += s;
    return t;
  }
  double best_loss() const;
  /// Mean modeled seconds per epoch (the paper's hardware efficiency).
  double seconds_per_epoch() const;
};

struct TrainOptions {
  std::size_t max_epochs = 200;
  /// Abort when loss exceeds `divergence_factor` x initial (or is NaN).
  double divergence_factor = 10.0;
  std::uint64_t seed = 7;
  bool prefer_dense = false;  ///< loss evaluation layout
  /// Divergence watchdog (DESIGN.md §11, spec key resilience=watchdog).
  /// Off by default: run_training is then the plain epoch loop. When on,
  /// an epoch whose loss is non-finite or exceeds the divergence
  /// threshold is rolled back to the last good snapshot (weights + RNG +
  /// trajectory) and retried with the step size scaled by
  /// kWatchdogBackoff, up to kWatchdogBudget times; every rollback is
  /// recorded in RunResult::recoveries.
  bool watchdog = false;
  /// When non-empty, a TrainCheckpoint is written (atomically) to this
  /// path after every `checkpoint_every`-th completed epoch — or, when
  /// `checkpoint_every_seconds` > 0, whenever that much host time has
  /// passed since the last one (time-based cadence wins when set).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  double checkpoint_every_seconds = 0;
  /// When set, the run continues from this checkpoint instead of from w0,
  /// bit-identically to the uninterrupted run. Must outlive the call.
  const TrainCheckpoint* resume = nullptr;
  /// Live progress heartbeat: when > 0, an INFO log line with epoch, loss
  /// and a wall-clock ETA is emitted at most every this-many host seconds.
  /// Pure logging off the monotonic clock — the trajectory is bit-identical
  /// with the heartbeat on or off. 0 (default) disables.
  double heartbeat_seconds = 0;
  /// Engage the epoch time-budget ledger (DESIGN.md §18): fill
  /// RunResult::attribution and add the split to the heartbeat line.
  /// Observation-only: trajectories are bit-identical either way.
  bool attribute = false;
};

/// The watchdog's fixed step-size backoff and rollback budget.
inline constexpr double kWatchdogBackoff = 0.1;
inline constexpr std::size_t kWatchdogBudget = 3;

/// Runs `engine` from a copy of `w0`, recording the loss after every
/// epoch. Loss evaluation is excluded from the modeled time (paper §IV-A).
RunResult run_training(Engine& engine, const Model& model,
                       const TrainData& data, std::span<const real_t> w0,
                       real_t alpha, const TrainOptions& opts);

}  // namespace parsgd
