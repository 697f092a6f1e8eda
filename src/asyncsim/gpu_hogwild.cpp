#include "asyncsim/gpu_hogwild.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/warp.hpp"
#include "linalg/gpu_backend.hpp"
#include "matrix/transform.hpp"

namespace parsgd {

using gpusim::DeviceBuffer;
using gpusim::KernelStats;
using gpusim::kWarpSize;
using gpusim::LaneMask;
using gpusim::Lanes;

// ---- GpuHogwild (incremental, linear models) ----

GpuHogwild::GpuHogwild(const Model& model, const TrainData& data,
                       gpusim::Device& device,
                       const GpuHogwildOptions& opts)
    : model_(model), data_(data), device_(device), opts_(opts) {
  PARSGD_CHECK(model.sparse_updates(),
               "GpuHogwild is for per-example (linear) models; use "
               "GpuHogbatch for MLP");
  PARSGD_CHECK(opts_.concurrency_warps >= 1);
}

void GpuHogwild::instrument(std::span<const real_t> w) {
  const std::size_t total_warps = (data_.n() + kWarpSize - 1) / kWarpSize;
  const std::size_t sample_warps =
      std::min<std::size_t>(total_warps,
                            static_cast<std::size_t>(opts_.instrument_warps));
  KernelStats sample;
  if (HogwildReplayMemo* memo = opts_.replay_memo) {
    // Concurrent engines wait for the first replay. A hit records the
    // launch a replay would and resets the stats as a replay does.
    const std::lock_guard lock(memo->mu);
    if (!memo->sample) {
      memo->sample = replay(w, sample_warps);
    } else {
      device_.record_kernel("hogwild", *memo->sample);
      device_.reset_stats();
    }
    sample = *memo->sample;
  } else {
    sample = replay(w, sample_warps);
  }

  // Extrapolate the sample to the full epoch. Per-warp load is uniform in
  // expectation (examples are shuffled), so scaling by warp count is
  // unbiased; sm_cycles scales the same way because blocks spread evenly.
  const double scale = static_cast<double>(total_warps) /
                       static_cast<double>(sample_warps);
  KernelStats epoch = sample;
  epoch.sm_cycles *= scale;
  epoch.issue_cycles *= scale;
  epoch.mem_transactions *= scale;
  epoch.mem_bytes *= scale;
  epoch.atomic_ops *= scale;
  epoch.atomic_conflicts *= scale;
  epoch.flops *= scale;
  epoch.divergence_waste *= scale;
  epoch.blocks *= scale;
  epoch.warps *= scale;
  epoch.launches = 1;  // one grid covers the epoch
  epoch_stats_ = epoch;
}

KernelStats GpuHogwild::replay(std::span<const real_t> w,
                               std::size_t sample_warps) {
  // Replay the access pattern of the Hogwild kernel for a sample of warps
  // through the warp-level simulator: gather phase (dot product), a
  // transcendental coefficient, and the atomicAdd update phase. Numerics
  // are produced by the functional path; here only addresses matter.
  const CsrMatrix& x = *data_.sparse;
  const std::size_t n = data_.n();
  DeviceBuffer<index_t> d_cols(device_, x.col_idx());
  DeviceBuffer<real_t> d_vals(device_, x.values());
  DeviceBuffer<real_t> d_w(device_, w);

  const int warps_per_block = 4;
  const int blocks = static_cast<int>(
      (sample_warps + warps_per_block - 1) / warps_per_block);

  device_.reset_stats();
  const KernelStats sample = gpusim::launch(
      device_, {blocks, warps_per_block * kWarpSize, "hogwild"},
      [&](gpusim::BlockCtx& blk) {
        for (int wi = 0; wi < blk.num_warps(); ++wi) {
          const std::size_t warp_id =
              static_cast<std::size_t>(blk.block_idx()) * warps_per_block +
              wi;
          if (warp_id >= sample_warps) continue;
          auto& warp = blk.warp(wi);
          // Lane l handles example e = warp_id*32 + l.
          Lanes<std::uint32_t> row{};
          Lanes<std::uint32_t> nnz{};
          std::size_t max_nnz = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            const std::size_t e =
                std::min(n - 1, warp_id * kWarpSize + l);
            row[l] = static_cast<std::uint32_t>(e);
            nnz[l] = static_cast<std::uint32_t>(x.row_nnz(e));
            max_nnz = std::max<std::size_t>(max_nnz, nnz[l]);
          }
          // Dot-product phase: lanes march over their row positions in
          // lockstep; shorter rows mask off (lane stalls).
          for (std::size_t pos = 0; pos < max_nnz; ++pos) {
            LaneMask mask = 0;
            Lanes<std::uint32_t> at{};
            for (int l = 0; l < kWarpSize; ++l) {
              if (pos < nnz[l]) {
                mask |= LaneMask(1) << l;
                at[l] = static_cast<std::uint32_t>(x.row_ptr()[row[l]] + pos);
              }
            }
            const auto cols = warp.load(d_cols, at, mask);
            (void)warp.load(d_vals, at, mask);
            Lanes<std::uint32_t> widx{};
            for (int l = 0; l < kWarpSize; ++l) {
              if (gpusim::lane_active(mask, l)) widx[l] = cols[l];
            }
            (void)warp.load(d_w, widx, mask);  // the sparse model gather
            warp.arith(mask, 1, 2);            // FMA into the running dot
          }
          // Coefficient: transcendental per lane.
          warp.arith(warp.full_mask(), linalg::kTranscendentalFlops,
                     linalg::kTranscendentalFlops / 10.0);
          // Update phase: warp-shuffle reduction first (the paper's
          // conflict-reducing optimization, §IV-B): lanes holding the
          // same model index pre-sum their contributions with shuffles,
          // then one lane per *distinct* index issues the atomicAdd.
          for (std::size_t pos = 0; pos < max_nnz; ++pos) {
            LaneMask mask = 0;
            Lanes<std::uint32_t> at{};
            for (int l = 0; l < kWarpSize; ++l) {
              if (pos < nnz[l]) {
                mask |= LaneMask(1) << l;
                at[l] = static_cast<std::uint32_t>(x.row_ptr()[row[l]] + pos);
              }
            }
            const auto cols = warp.load(d_cols, at, mask);
            warp.arith(mask, 1, 2);   // alpha * coef * x_j
            warp.arith(mask, 10, 1);  // 5x shfl + 5x add dedupe tree
            Lanes<std::uint32_t> widx{};
            Lanes<real_t> zero{};
            LaneMask distinct = 0;
            for (int l = 0; l < kWarpSize; ++l) {
              if (!gpusim::lane_active(mask, l)) continue;
              // First lane holding this index: no earlier distinct lane
              // (every earlier active lane's index has one) matches it.
              bool first = true;
              for (LaneMask m = distinct; m != 0 && first; m &= m - 1) {
                first = cols[std::countr_zero(m)] != cols[l];
              }
              if (first) {
                widx[l] = cols[l];
                distinct |= LaneMask(1) << l;
              }
            }
            warp.atomic_add(d_w, widx, zero, distinct);
          }
        }
      });
  device_.reset_stats();
  return sample;
}

CostBreakdown GpuHogwild::run_epoch(std::span<real_t> w, real_t alpha,
                                    Rng& rng) {
  PARSGD_CHECK(w.size() == model_.dim());
  if (!epoch_stats_) instrument(w);

  const std::size_t n = data_.n();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(order);

  const std::size_t round =
      static_cast<std::size_t>(opts_.concurrency_warps) * kWarpSize;
  if (round_delta_.size() != model_.dim()) {
    round_delta_.assign(model_.dim(), 0);
    round_seen_.assign(model_.dim(), false);
    round_touched_.clear();
    round_filled_ = 0;
  }
  std::vector<index_t> touched;

  for (std::size_t i = 0; i < n; ++i) {
    const ExampleView x = data_.example(order[i], opts_.prefer_dense);
    // Gradient from the frozen model `w`; the additive update lands in
    // the round buffer (example_step is an additive decrement, so a zero
    // base accumulates exactly the update).
    model_.example_step(x, data_.y[order[i]], alpha, w, round_delta_,
                        &touched);
    for (const index_t j : touched) {
      if (!round_seen_[j]) {
        round_seen_[j] = true;
        round_touched_.push_back(j);
      }
    }
    if (++round_filled_ >= round) {
      // atomicAdd semantics: all updates apply (summed), none lost. Each
      // coordinate is independent, so applying the distinct set in any
      // order is bit-identical to a sorted sweep.
      for (const index_t j : round_touched_) {
        w[j] += round_delta_[j];
        round_delta_[j] = 0;
        round_seen_[j] = false;
      }
      round_touched_.clear();
      round_filled_ = 0;
    }
  }

  CostBreakdown cost;
  cost.gpu_cycles = epoch_stats_->sm_cycles;
  cost.kernel_launches = 1;
  cost.flops = epoch_stats_->flops;
  cost.bytes_streamed = epoch_stats_->mem_bytes;
  cost.write_conflicts = epoch_stats_->atomic_conflicts;
  return cost;
}

// ---- GpuHogbatch (mini-batch, MLP) ----

GpuHogbatch::GpuHogbatch(const Model& model, const TrainData& data,
                         gpusim::Device& device,
                         const GpuHogbatchOptions& opts)
    : model_(model), data_(data), device_(device), opts_(opts) {
  PARSGD_CHECK(opts_.batch >= 1);
}

void GpuHogbatch::instrument(std::span<const real_t> w) {
  // Cost of one representative batch = a full-batch epoch over a slice of
  // `batch` rows, executed through the GPU linalg backend (every primitive
  // is a separate kernel launch, reproducing the launch-overhead tax of
  // small batches).
  const std::size_t end = std::min(data_.n(), opts_.batch);
  const CsrMatrix xs = slice_rows(*data_.sparse, 0, end);
  std::optional<DenseMatrix> xd;
  if (data_.has_dense()) xd = slice_rows(*data_.dense, 0, end);
  TrainData slice;
  slice.sparse = &xs;
  slice.dense = xd ? &*xd : nullptr;
  slice.y = data_.y.subspan(0, end);

  std::vector<real_t> scratch(w.begin(), w.end());
  CostBreakdown cost;
  linalg::GpuBackend backend(device_);
  backend.set_sink(&cost);
  model_.sync_epoch(backend, slice, opts_.prefer_dense && data_.has_dense(),
                    real_t(0), scratch);
  device_.reset_stats();
  batch_cost_ = cost;
}

CostBreakdown GpuHogbatch::run_epoch(std::span<real_t> w, real_t alpha,
                                     Rng& rng) {
  PARSGD_CHECK(w.size() == model_.dim());
  if (!batch_cost_) instrument(w);

  const std::size_t n = data_.n();
  const std::size_t n_batches = (n + opts_.batch - 1) / opts_.batch;
  std::vector<std::uint32_t> batch_order(n_batches);
  for (std::size_t b = 0; b < n_batches; ++b) {
    batch_order[b] = static_cast<std::uint32_t>(b);
  }
  rng.shuffle(batch_order);

  // Kernels execute one at a time (paper §IV-B): sequential mini-batch.
  for (const std::uint32_t b : batch_order) {
    const std::size_t begin = static_cast<std::size_t>(b) * opts_.batch;
    const std::size_t end = std::min(n, begin + opts_.batch);
    model_.batch_step(data_, begin, end, opts_.prefer_dense, alpha, w, w);
  }

  return batch_cost_->scaled(static_cast<double>(n_batches));
}

}  // namespace parsgd
