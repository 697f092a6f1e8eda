// Asynchronous SGD engines (paper §III-B).
//
// AsyncCpuEngine: Hogwild (incremental, LR/SVM) or Hogbatch (mini-batch,
// MLP) via the deterministic interleaving simulator. One logical worker
// reproduces sequential incremental SGD exactly (cpu-seq of Table III);
// many workers reproduce the staleness and cache-coherency conflicts of
// cpu-par.
//
// AsyncGpuEngine: warp-synchronous Hogwild for linear models, serialized
// Hogbatch for MLP, costed through the gpusim warp simulator.
#pragma once

#include <memory>

#include "asyncsim/async_sim.hpp"
#include "asyncsim/gpu_hogwild.hpp"
#include "gpusim/device.hpp"
#include "sgd/engine.hpp"
#include "sgd/timing.hpp"

namespace parsgd {

struct AsyncCpuOptions {
  Arch arch = Arch::kCpuSeq;  ///< kCpuSeq or kCpuPar
  int threads = 56;           ///< workers for kCpuPar
  std::size_t batch = 1;      ///< 1 = Hogwild; >1 = Hogbatch (MLP)
  std::size_t window_units = 4;
  bool prefer_dense = false;
  /// Per-example primitive-dispatch fee (us), the ViennaCL-driver
  /// calibration for Hogbatch MLP (paper Table III: ~21 us/ex sequential,
  /// ~1.3 us/ex with 56 threads; see EXPERIMENTS.md). 0 for Hogwild,
  /// whose inner loop is our own code.
  double dispatch_us_seq = 0;
  double dispatch_us_par = 0;
  /// Forwarded to AsyncSimOptions::delay_units (0 = auto).
  std::size_t delay_units = 0;
  /// Execution pool for Hogbatch task graphs (forwarded to the
  /// simulator); nullptr = the process-global pool.
  ThreadPool* pool = nullptr;
};

class AsyncCpuEngine final : public Engine {
 public:
  AsyncCpuEngine(const Model& model, const TrainData& data,
                 const ScaleContext& scale, const AsyncCpuOptions& opts);

  std::string name() const override;
  Arch arch() const override { return opts_.arch; }
  Update update() const override { return Update::kAsync; }
  double run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) override;
  const CostBreakdown& last_cost() const override { return cost_paper_; }
  ThreadPool* pool() const override;

  const AsyncSim& sim() const { return sim_; }

 private:
  const Model& model_;
  ScaleContext scale_;
  AsyncCpuOptions opts_;
  AsyncSim sim_;
  CostBreakdown cost_paper_;
};

struct AsyncGpuOptions {
  std::size_t batch = 1;  ///< 1 = warp-Hogwild; >1 = Hogbatch (MLP)
  bool prefer_dense = false;
  int concurrency_warps = 13 * 16;
  /// Hogbatch-MLP calibration: the paper's async-GPU MLP rows are a flat
  /// ~10.5 us per example across all five datasets (driver/launch costs
  /// of per-batch kernel chains, which dominate the simulated kernel
  /// work). When > 0, the epoch time is this fee instead of the
  /// per-launch accounting. 0 (Hogwild) uses the simulator's model.
  double dispatch_us = 0;
  /// Forwarded to GpuHogwildOptions::replay_memo.
  HogwildReplayMemo* replay_memo = nullptr;
};

class AsyncGpuEngine final : public Engine {
 public:
  AsyncGpuEngine(const Model& model, const TrainData& data,
                 const ScaleContext& scale, const AsyncGpuOptions& opts);
  ~AsyncGpuEngine() override;

  std::string name() const override;
  Arch arch() const override { return Arch::kGpu; }
  Update update() const override { return Update::kAsync; }
  double run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) override;
  const CostBreakdown& last_cost() const override { return cost_paper_; }

  /// Also mirrors the simulated GPU's kernel counters.
  void set_telemetry(
      std::shared_ptr<telemetry::TelemetrySession> s) override;

  const gpusim::Device* device() const override { return device_.get(); }

 private:
  const Model& model_;
  ScaleContext scale_;
  AsyncGpuOptions opts_;
  std::size_t n_units_ = 0;  ///< model updates (batches) per epoch
  std::unique_ptr<gpusim::Device> device_;
  std::unique_ptr<GpuHogwild> hogwild_;    ///< linear models
  std::unique_ptr<GpuHogbatch> hogbatch_;  ///< MLP
  CostBreakdown cost_paper_;
};

}  // namespace parsgd
