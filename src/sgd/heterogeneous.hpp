// Heterogeneous CPU+GPU synchronous SGD — the paper's second future-work
// direction ("study heterogeneous solutions that integrate concurrent
// processing across CPU and GPU", citing Omnivore).
//
// Each synchronous epoch's gradient pass is split: a fraction `phi` of the
// examples is evaluated on the GPU while the CPU threads evaluate the
// rest concurrently; the partial gradients are combined for one model
// update, so statistical efficiency is *identical* to plain synchronous
// SGD. The modeled epoch time is
//   max(gpu_time(phi), cpu_time(1 - phi)) + combine_overhead,
// and the optimal split equalizes the two device times. The ablation
// bench sweeps phi and reports the speedup over the best single device —
// bounded by 1 + min_time/max_time of the two devices.
#pragma once

#include <optional>

#include "linalg/cpu_backend.hpp"
#include "sgd/sync_engine.hpp"

namespace parsgd {

struct HeterogeneousOptions {
  bool use_dense = false;
  int cpu_threads = 56;
  SyncCalibration calibration{};
  /// Fraction of each epoch's examples evaluated on the GPU; negative
  /// means "auto": pick the split that equalizes device times.
  double gpu_fraction = -1.0;
  /// Combining the two partial gradients: one model-sized transfer over
  /// PCIe plus a vector add (seconds per model byte, ~12 GB/s PCIe 3).
  double combine_seconds_per_byte = 1.0 / 12e9;
  /// Execution pool for both device engines and the trajectory backend;
  /// nullptr = the process-global pool.
  ThreadPool* pool = nullptr;
  /// Pin the CPU backend's order-sensitive reductions to the scalar
  /// reference order (CpuBackendOptions::deterministic; spec key `det=`).
  bool deterministic = true;
  /// Model updates per epoch: 0 (default) = one full-batch update per
  /// epoch — the classic split-gradient schedule, whose trajectory is
  /// identical to plain synchronous SGD. >0 = synchronized mini-batch
  /// updates of this size (spec key `batch=`), sharing the sync engine's
  /// step-path runner; the modeled epoch time still comes from the
  /// split-device instrumentation (per-batch device costs scale the same
  /// way the full pass does).
  std::size_t minibatch = 0;
};

class HeterogeneousEngine final : public Engine {
 public:
  HeterogeneousEngine(const Model& model, const TrainData& data,
                      const ScaleContext& scale,
                      const HeterogeneousOptions& opts);

  std::string name() const override { return "sync/cpu+gpu"; }
  Arch arch() const override { return Arch::kGpu; }  // reported device
  Update update() const override { return Update::kSync; }

  double run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) override;
  const CostBreakdown& last_cost() const override { return cost_paper_; }

  /// The modeled seconds per epoch (instrumented lazily; alpha-independent).
  double epoch_seconds(std::span<const real_t> w_sample) override;

  ThreadPool* pool() const override { return cpu_engine_.pool(); }

  /// Forwards to both inner device engines so their GPU/pool counters
  /// land in the same session.
  void set_telemetry(
      std::shared_ptr<telemetry::TelemetrySession> s) override;

  /// The GPU share in effect (the auto-chosen one after first use).
  double gpu_fraction() const { return phi_; }
  /// Single-device epoch times the split was derived from.
  double gpu_epoch_seconds_full() const { return gpu_full_; }
  double cpu_epoch_seconds_full() const { return cpu_full_; }

 private:
  void instrument(std::span<const real_t> w_sample);

  const Model& model_;
  const TrainData& data_;
  ScaleContext scale_;
  HeterogeneousOptions opts_;
  SyncEngine gpu_engine_;
  SyncEngine cpu_engine_;
  std::optional<double> epoch_seconds_;
  double phi_ = 0;
  double gpu_full_ = 0;
  double cpu_full_ = 0;
  CostBreakdown cost_paper_;
  /// Trajectory backend hoisted out of run_epoch (scratch reuse); the sink
  /// is reset per epoch and never reported — cost comes from instrument().
  linalg::CpuBackend traj_backend_;
  CostBreakdown traj_cost_;
};

}  // namespace parsgd
