// Synchronous SGD engine (paper §III-A): one full-batch gradient-descent
// epoch expressed entirely in linalg primitives, on CPU (sequential or
// parallel) or GPU. Statistical efficiency is architecture-independent by
// construction — the paper states this and we preserve it by running the
// functional trajectory through one deterministic path while the
// architecture only determines the *cost* of an epoch (instrumented once;
// primitive costs do not depend on parameter values).
#pragma once

#include <memory>
#include <optional>

#include "gpusim/device.hpp"
#include "linalg/cpu_backend.hpp"
#include "models/linear.hpp"
#include "sgd/engine.hpp"
#include "sgd/timing.hpp"

namespace parsgd {

/// Calibration of the ViennaCL execution pathologies the paper's Table II
/// exhibits (see EXPERIMENTS.md "calibration" for the derivation):
///  * linear tasks: CPU kernels reach ~12% of the roofline our hardware
///    model predicts, the sequential reference path is scalar and carries
///    a flat ~1.9 s per-epoch driver overhead (the paper's cpu-seq rows
///    are ~2 s across five datasets whose sizes differ by 60x);
///  * MLP: the per-example forward/backward primitive chain costs a flat
///    dispatch fee per example (paper: ~18 us/ex cpu-seq, ~8 us/ex
///    cpu-par — their Fig. 6 "2x" effect — and ~1.7 us/ex on GPU).
/// All constants are multiplicative/additive on top of the mechanistic
/// cost model, so every *ratio* the study reports still comes from the
/// model; these only pin the absolute scale to the paper's testbed.
struct SyncCalibration {
  double cpu_kernel_efficiency = 0.12;
  double gpu_dense_efficiency = 0.12;
  double gpu_sparse_efficiency = 1.0;
  double seq_epoch_overhead_s = 1.9;  ///< cpu-seq only
  double dispatch_us_seq = 0;         ///< per example (MLP: 17)
  double dispatch_us_par = 0;         ///< per example (MLP: 8)
  double dispatch_us_gpu = 0;         ///< per example (MLP: 1.7)
  bool vectorized_seq = false;        ///< scalar sequential reference path

  /// The MLP variant: dispatch-dominated, kernels at face value.
  static SyncCalibration mlp() {
    SyncCalibration c;
    c.cpu_kernel_efficiency = 1.0;
    c.gpu_dense_efficiency = 1.0;
    c.gpu_sparse_efficiency = 1.0;
    c.seq_epoch_overhead_s = 0;
    c.dispatch_us_seq = 17.0;
    c.dispatch_us_par = 8.0;
    c.dispatch_us_gpu = 1.7;
    c.vectorized_seq = true;
    return c;
  }
  /// No calibration: the raw mechanistic model (ablation benches).
  static SyncCalibration none() {
    SyncCalibration c;
    c.cpu_kernel_efficiency = 1.0;
    c.gpu_dense_efficiency = 1.0;
    c.gpu_sparse_efficiency = 1.0;
    c.seq_epoch_overhead_s = 0;
    c.vectorized_seq = true;
    return c;
  }
};

struct SyncEngineOptions {
  Arch arch = Arch::kCpuSeq;
  bool use_dense = false;   ///< dense vs sparse primitives
  int cpu_threads = 56;     ///< threads for kCpuPar
  std::size_t gemm_parallel_threshold = 5000;  ///< ViennaCL quirk knob
  SyncCalibration calibration{};
  /// Model updates per epoch: 0 = one update per full pass (batch GD,
  /// the LR/SVM setting); >0 = synchronized mini-batch updates of this
  /// size. The paper's MLP statistical efficiency matches mini-batch
  /// SGD: its sync-MLP epoch counts equal the async cpu-seq (mini-batch)
  /// counts on 4 of 5 datasets, so the sync MLP engine updates per batch.
  std::size_t minibatch = 0;
  /// Execution pool for the trajectory backend and mini-batch task
  /// graphs; nullptr = the process-global pool. Execution-only: results are
  /// bit-identical for every pool (deterministic reduction grids).
  ThreadPool* pool = nullptr;
  /// Pin the CPU backend's order-sensitive reductions to the scalar
  /// reference order (CpuBackendOptions::deterministic; spec key `det=`).
  bool deterministic = true;
};

class SyncEngine final : public Engine {
 public:
  SyncEngine(const Model& model, const TrainData& data,
             const ScaleContext& scale, const SyncEngineOptions& opts);
  ~SyncEngine() override;

  std::string name() const override;
  Arch arch() const override { return opts_.arch; }
  Update update() const override { return Update::kSync; }

  double run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) override;
  /// Stages the carry only for full-batch epochs of a LinearModel; clears
  /// it otherwise.
  double run_epoch_carried(std::span<real_t> w, real_t alpha, Rng& rng,
                           EpochCarry& carry) override;
  const CostBreakdown& last_cost() const override { return cost_paper_; }

  /// The modeled seconds per epoch (instrumented lazily; alpha-independent).
  double epoch_seconds(std::span<const real_t> w_sample) override;

  /// Also mirrors the simulated GPU's kernel counters (kGpu only).
  void set_telemetry(
      std::shared_ptr<telemetry::TelemetrySession> s) override;

  ThreadPool* pool() const override;

  const gpusim::Device* device() const override { return device_.get(); }

 private:
  void instrument(std::span<const real_t> w_sample);
  double epoch(std::span<real_t> w, real_t alpha, Rng& rng,
               EpochCarry* carry);

  const Model& model_;
  /// model_ when it is a LinearModel (the only kind that stages a carry).
  const LinearModel* linear_;
  const TrainData& data_;
  ScaleContext scale_;
  SyncEngineOptions opts_;
  std::unique_ptr<gpusim::Device> device_;  ///< kGpu only
  std::optional<double> epoch_seconds_;
  CostBreakdown cost_paper_;
  /// Backend + throwaway sink of the functional trajectory, hoisted out
  /// of run_epoch so per-epoch scratch (packed GEMM operands, reduction
  /// buffers) is reused instead of reallocated every epoch. The sink is
  /// reset per epoch; the reported cost always comes from instrument().
  linalg::CpuBackend traj_backend_;
  CostBreakdown traj_cost_;
};

}  // namespace parsgd
