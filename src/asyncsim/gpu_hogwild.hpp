// Asynchronous SGD on the simulated GPU.
//
// GpuHogwild (LR/SVM): the Hogwild kernel executes warp-synchronously —
// 32 consecutive examples are processed in lockstep by one warp, and with
// W warps resident device-wide, roughly W*32 examples compute their
// gradients against the *same* model values before any update lands. We
// simulate that as rounds: a round of `concurrency_warps * 32` examples
// reads a frozen model, updates are summed (atomicAdd semantics: no lost
// updates, but serialized on conflicts) and applied at round end. The
// paper's findings emerge from the two costs this exposes:
//  * statistical — the round is a huge effective batch, so dense
//    low-dimensional data needs far more epochs (Table III: covtype LR
//    gpu 135 epochs vs 4 sequential) or diverges (w8a SVM inf);
//  * hardware — intra-warp atomic conflicts on dense models and
//    uncoalesced gathers + lane stalls on variable-length sparse rows,
//    measured by replaying the access pattern through the warp simulator.
//
// GpuHogbatch (MLP): kernels for one mini-batch run one-at-a-time on the
// device (paper §IV-B), so execution degenerates to *sequential*
// mini-batch SGD — statistically near cpu-seq — while paying per-batch
// kernel-launch overhead and low-occupancy small-GEMM costs.
#pragma once

#include <mutex>
#include <optional>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "hwmodel/cost.hpp"
#include "models/model.hpp"

namespace parsgd {

/// GpuHogwild's warp replay, shared by the engines of one (data, model
/// dimension, device spec): the replay reads addresses, never values, so
/// its sample stats are the same for every such engine. The first
/// instrument fills it; a replay that throws leaves it empty.
struct HogwildReplayMemo {
  std::mutex mu;
  std::optional<gpusim::KernelStats> sample;  ///< guarded by mu
};

struct GpuHogwildOptions {
  /// Warps concurrently resident device-wide. Default: 13 SMs x 16 warps.
  /// This is an *absolute* machine property: the stability-limiting
  /// effective batch of warp-synchronous Hogwild is concurrency x 32
  /// examples regardless of dataset size, so it is not scaled with N
  /// (rounds simply span epochs on small scaled datasets).
  int concurrency_warps = 13 * 16;
  bool prefer_dense = false;
  /// Warps sampled when instrumenting the per-epoch kernel cost.
  int instrument_warps = 256;
  /// Shared replay (nullptr = every engine replays its own warps).
  HogwildReplayMemo* replay_memo = nullptr;
};

class GpuHogwild {
 public:
  GpuHogwild(const Model& model, const TrainData& data,
             gpusim::Device& device, const GpuHogwildOptions& opts);

  /// One functional epoch (round-synchronous semantics) plus the modeled
  /// per-epoch kernel cost (gpu_cycles filled in the breakdown).
  CostBreakdown run_epoch(std::span<real_t> w, real_t alpha, Rng& rng);

 private:
  /// Caches the extrapolated per-epoch stats of replay(), taken from the
  /// replay memo when one is set.
  void instrument(std::span<const real_t> w);
  /// Replays the gather/update access pattern of `sample_warps` warps
  /// through the warp simulator; returns the sampled kernel's stats.
  gpusim::KernelStats replay(std::span<const real_t> w,
                             std::size_t sample_warps);

  const Model& model_;
  const TrainData& data_;
  gpusim::Device& device_;
  GpuHogwildOptions opts_;
  std::optional<gpusim::KernelStats> epoch_stats_;
  // Round state persists across epochs: a device-wide round of
  // concurrency x 32 in-flight examples may span several scaled epochs.
  // The touched set is kept distinct as it fills (a d-bit seen-mask), so
  // a round costs O(distinct indices) however many examples it spans.
  std::vector<real_t> round_delta_;
  std::vector<index_t> round_touched_;  ///< distinct, in first-touch order
  std::vector<bool> round_seen_;        ///< bit j: j is in round_touched_
  std::size_t round_filled_ = 0;
};

struct GpuHogbatchOptions {
  std::size_t batch = 512;
  bool prefer_dense = false;
};

class GpuHogbatch {
 public:
  GpuHogbatch(const Model& model, const TrainData& data,
              gpusim::Device& device, const GpuHogbatchOptions& opts);

  CostBreakdown run_epoch(std::span<real_t> w, real_t alpha, Rng& rng);

 private:
  /// Runs one representative batch through the GPU linalg backend and
  /// caches its cost; per-epoch cost = per-batch cost x batch count.
  void instrument(std::span<const real_t> w);

  const Model& model_;
  const TrainData& data_;
  gpusim::Device& device_;
  GpuHogbatchOptions opts_;
  std::optional<CostBreakdown> batch_cost_;
};

}  // namespace parsgd
