#include "linalg/gpu_backend.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "linalg/cpu_backend.hpp"

namespace parsgd::linalg {

using gpusim::AnalyticKernel;
using gpusim::DeviceBuffer;
using gpusim::KernelStats;
using gpusim::kWarpSize;
using gpusim::LaneMask;
using gpusim::Lanes;
using gpusim::LaunchConfig;

GpuBackend::GpuBackend(gpusim::Device& device, const GpuBackendOptions& opts)
    : device_(device), opts_(opts) {}

std::string GpuBackend::name() const { return "gpu"; }

void GpuBackend::charge(const KernelStats& stats) {
  auto& s = sink();
  // Launch overhead is tracked separately via kernel_launches: it is a
  // per-epoch constant, while sm_cycles scale with the data size.
  s.gpu_cycles += stats.sm_cycles;
  s.kernel_launches += stats.launches;
  s.flops += stats.flops;
  s.bytes_streamed += stats.mem_bytes;
  s.write_conflicts += stats.atomic_conflicts;
}

void GpuBackend::charge_elementwise(std::size_t n, double flops_per_elem,
                                    double bytes_per_elem) {
  AnalyticKernel k;
  const double dn = static_cast<double>(n);
  k.flops = flops_per_elem * dn;
  k.warp_instructions = (flops_per_elem + 2.0) * dn / kWarpSize;
  const double bytes = bytes_per_elem * dn;
  if (bytes <= static_cast<double>(device_.spec().l2_bytes)) {
    k.l2_bytes = bytes;
  } else {
    k.global_bytes = bytes;
  }
  k.block_threads = opts_.block_threads;
  k.blocks = std::max<int>(
      1, static_cast<int>((n + opts_.block_threads - 1) /
                          opts_.block_threads));
  k.name = "elementwise";
  charge(gpusim::launch_analytic(device_, k));
}

void GpuBackend::gemv(const DenseMatrix& a, std::span<const real_t> x,
                      std::span<real_t> y, bool transpose) {
  // Functional result on the host; analytically-costed streaming kernel.
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  host.gemv(a, x, y, transpose);

  AnalyticKernel k;
  const double m = static_cast<double>(a.rows());
  const double n = static_cast<double>(a.cols());
  k.flops = 2.0 * m * n;
  k.warp_instructions = 2.0 * m * n / kWarpSize;
  k.global_bytes = static_cast<double>(a.bytes());
  k.l2_bytes = static_cast<double>((x.size() + y.size()) * sizeof(real_t));
  k.block_threads = opts_.block_threads;
  k.blocks = std::max<int>(1, static_cast<int>(a.rows() / 4 + 1));
  k.name = "gemv";
  charge(gpusim::launch_analytic(device_, k));
}

void GpuBackend::spmv(const CsrMatrix& a, std::span<const real_t> x,
                      std::span<real_t> y, bool transpose) {
  const std::size_t m = a.rows();
  if (!transpose) {
    PARSGD_CHECK(x.size() == a.cols() && y.size() == m);
  } else {
    PARSGD_CHECK(x.size() == m && y.size() == a.cols());
    std::fill(y.begin(), y.end(), real_t(0));
  }

  DeviceBuffer<index_t> d_cols(device_, a.col_idx());
  DeviceBuffer<real_t> d_vals(device_, a.values());
  DeviceBuffer<real_t> d_x(device_, std::span<const real_t>(x));
  DeviceBuffer<real_t> d_y(device_, y.size());
  d_y.fill(real_t(0));

  gpusim::KernelStats stats;
  if (!transpose) {
    // One warp per row (the standard csr-vector kernel): lanes stride the
    // row; variable row lengths surface as divergence; the gather from x
    // is where sparse irregular access costs live.
    const int warps_per_block = opts_.block_threads / kWarpSize;
    const int blocks = static_cast<int>(
        (m + warps_per_block - 1) / std::max(1, warps_per_block));
    stats = gpusim::launch(
        device_,
        LaunchConfig{std::max(1, blocks), opts_.block_threads, "spmv"},
        [&](gpusim::BlockCtx& blk) {
          for (int w = 0; w < blk.num_warps(); ++w) {
            auto& warp = blk.warp(w);
            const std::size_t row =
                static_cast<std::size_t>(blk.block_idx()) * warps_per_block +
                w;
            if (row >= m) continue;
            const auto rv = a.row(row);
            const auto base = static_cast<std::uint32_t>(a.row_ptr()[row]);
            Lanes<real_t> acc{};
            for (std::size_t k0 = 0; k0 < rv.nnz(); k0 += kWarpSize) {
              const int nlanes = static_cast<int>(
                  std::min<std::size_t>(kWarpSize, rv.nnz() - k0));
              const LaneMask mask = gpusim::first_lanes(nlanes);
              Lanes<std::uint32_t> kidx{};
              for (int l = 0; l < nlanes; ++l)
                kidx[l] = base + static_cast<std::uint32_t>(k0) + l;
              const auto cols = warp.load(d_cols, kidx, mask);
              const auto vals = warp.load(d_vals, kidx, mask);
              Lanes<std::uint32_t> xi{};
              for (int l = 0; l < nlanes; ++l) xi[l] = cols[l];
              const auto xv = warp.load(d_x, xi, mask);
              warp.arith(mask, 1, 2);  // FMA
              for (int l = 0; l < nlanes; ++l) acc[l] += vals[l] * xv[l];
            }
            const real_t total = warp.reduce_sum(acc, warp.full_mask());
            Lanes<std::uint32_t> out_idx{};
            Lanes<real_t> out_val{};
            out_idx[0] = static_cast<std::uint32_t>(row);
            out_val[0] = total;
            warp.store(d_y, out_idx, out_val, 0x1u);
          }
        });
    for (std::size_t r = 0; r < m; ++r) y[r] = d_y.host_at(r);
  } else {
    // Transpose scatter: thread-per-nonzero (COO-style atomic scatter).
    // Lanes cover 32 consecutive nonzeros — coalesced loads of cols/vals —
    // and atomically accumulate into y[col]; nonzeros of *different* rows
    // sharing a column collide inside the warp, the intra-warp conflict
    // the paper's GPU-Hogwild analysis highlights.
    std::vector<index_t> entry_row(a.nnz());
    for (std::size_t r = 0; r < m; ++r) {
      for (offset_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        entry_row[k] = static_cast<index_t>(r);
      }
    }
    DeviceBuffer<index_t> d_rows(device_, entry_row);
    const std::size_t nnz = a.nnz();
    const std::size_t warps_needed = (nnz + kWarpSize - 1) / kWarpSize;
    const int warps_per_block = opts_.block_threads / kWarpSize;
    const int blocks = static_cast<int>(
        (warps_needed + warps_per_block - 1) / std::max(1, warps_per_block));
    stats = gpusim::launch(
        device_,
        LaunchConfig{std::max(1, blocks), opts_.block_threads, "spmv_t"},
        [&](gpusim::BlockCtx& blk) {
          for (int w = 0; w < blk.num_warps(); ++w) {
            auto& warp = blk.warp(w);
            const std::size_t begin =
                (static_cast<std::size_t>(blk.block_idx()) *
                     warps_per_block + w) * kWarpSize;
            if (begin >= nnz) continue;
            const int nlanes = static_cast<int>(
                std::min<std::size_t>(kWarpSize, nnz - begin));
            const LaneMask mask = gpusim::first_lanes(nlanes);
            Lanes<std::uint32_t> kidx{};
            for (int l = 0; l < nlanes; ++l)
              kidx[l] = static_cast<std::uint32_t>(begin) + l;
            const auto cols = warp.load(d_cols, kidx, mask);
            const auto vals = warp.load(d_vals, kidx, mask);
            const auto rows = warp.load(d_rows, kidx, mask);
            Lanes<std::uint32_t> xi{};
            for (int l = 0; l < nlanes; ++l) xi[l] = rows[l];
            const auto xv = warp.load(d_x, xi, mask);
            warp.arith(mask, 1, 1);
            Lanes<real_t> contrib{};
            Lanes<std::uint32_t> yi{};
            for (int l = 0; l < nlanes; ++l) {
              contrib[l] = xv[l] * vals[l];
              yi[l] = cols[l];
            }
            warp.atomic_add(d_y, yi, contrib, mask);
          }
        });
    for (std::size_t c2 = 0; c2 < y.size(); ++c2) y[c2] = d_y.host_at(c2);
  }
  charge(stats);
}

void GpuBackend::gemm(const DenseMatrix& a, const DenseMatrix& b,
                      DenseMatrix& c, bool trans_a, bool trans_b) {
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  host.gemm(a, b, c, trans_a, trans_b);

  const double m = static_cast<double>(c.rows());
  const double n = static_cast<double>(c.cols());
  const double k = static_cast<double>(trans_a ? a.rows() : a.cols());
  const double tile = opts_.gemm_tile;

  // Shared-memory tiled GEMM: each operand element is reloaded from global
  // memory (result_extent / tile) times; every MAC reads two shared values.
  AnalyticKernel ak;
  ak.flops = 2.0 * m * n * k;
  ak.warp_instructions = 2.0 * m * n * k / kWarpSize;
  ak.global_bytes =
      sizeof(real_t) * (m * k * std::ceil(n / tile) +
                        k * n * std::ceil(m / tile)) +
      static_cast<double>(c.bytes());
  ak.shared_accesses = 2.0 * m * n * k / kWarpSize;
  ak.block_threads = static_cast<int>(tile * tile);
  ak.blocks = std::max<int>(1, static_cast<int>(std::ceil(m / tile) *
                                                std::ceil(n / tile)));
  ak.name = "gemm";
  charge(gpusim::launch_analytic(device_, ak));
}

void GpuBackend::spmm(const CsrMatrix& a, const DenseMatrix& b,
                      DenseMatrix& c) {
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  host.spmm(a, b, c);

  // Warp-per-row kernel: each nnz gathers one row of B (contiguous, so it
  // coalesces into ceil(4*ncols/128) segments).
  AnalyticKernel ak;
  const double nnz = static_cast<double>(a.nnz());
  const double n = static_cast<double>(b.cols());
  const double seg_per_brow =
      std::max(1.0, std::ceil(n * sizeof(real_t) / 128.0));
  ak.flops = 2.0 * nnz * n;
  ak.warp_instructions = 2.0 * nnz * n / kWarpSize;
  ak.global_bytes = static_cast<double>(a.bytes()) +
                    static_cast<double>(c.bytes()) +
                    nnz * seg_per_brow * 128.0;
  ak.block_threads = opts_.block_threads;
  ak.blocks = std::max<int>(
      1, static_cast<int>(a.rows() * kWarpSize / opts_.block_threads + 1));
  ak.name = "spmm";
  charge(gpusim::launch_analytic(device_, ak));
}

void GpuBackend::spmm_at_b(const CsrMatrix& a, const DenseMatrix& b,
                           DenseMatrix& c) {
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  host.spmm_at_b(a, b, c);

  // Scatter kernel: each nnz atomically accumulates a row of C (m columns,
  // contiguous) — coalesced per row but scattered across rows.
  AnalyticKernel ak;
  const double nnz = static_cast<double>(a.nnz());
  const double m = static_cast<double>(b.cols());
  const double seg_per_crow =
      std::max(1.0, std::ceil(m * sizeof(real_t) / 128.0));
  ak.flops = 2.0 * nnz * m;
  ak.warp_instructions = 3.0 * nnz * m / kWarpSize;  // FMA + atomics
  ak.global_bytes = static_cast<double>(a.bytes()) +
                    static_cast<double>(b.bytes()) +
                    2.0 * nnz * seg_per_crow * 128.0;
  ak.block_threads = opts_.block_threads;
  ak.blocks = std::max<int>(
      1, static_cast<int>(a.rows() * kWarpSize / opts_.block_threads + 1));
  ak.name = "spmm_at_b";
  charge(gpusim::launch_analytic(device_, ak));
}

void GpuBackend::spmv_t_axpy(real_t alpha, const CsrMatrix& a,
                             std::span<const real_t> x,
                             std::span<real_t> y) {
  // The device runs the two kernels: the atomic scatter, then the axpy.
  spmv_t_buf_.resize(a.cols());
  spmv(a, x, spmv_t_buf_, /*transpose=*/true);
  axpy(alpha, spmv_t_buf_, y);
}

void GpuBackend::axpy(real_t alpha, std::span<const real_t> x,
                      std::span<real_t> y) {
  PARSGD_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
  charge_elementwise(x.size(), 2.0, 3.0 * sizeof(real_t));
}

void GpuBackend::scale(std::span<real_t> x, real_t alpha) {
  for (auto& v : x) v *= alpha;
  charge_elementwise(x.size(), 1.0, 2.0 * sizeof(real_t));
}

double GpuBackend::dot(std::span<const real_t> x,
                       std::span<const real_t> y) {
  PARSGD_CHECK(x.size() == y.size());
  double acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    acc += static_cast<double>(x[i]) * y[i];
  charge_elementwise(x.size(), 2.0, 2.0 * sizeof(real_t));
  return acc;
}

void GpuBackend::ew_sigmoid(std::span<const real_t> x,
                            std::span<real_t> y) {
  PARSGD_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = static_cast<real_t>(1.0 / (1.0 + std::exp(-x[i])));
  charge_elementwise(x.size(), kTranscendentalFlops, 2.0 * sizeof(real_t));
}

void GpuBackend::ew_sigmoid_grad(std::span<const real_t> upstream,
                                 std::span<const real_t> s,
                                 std::span<real_t> y) {
  PARSGD_CHECK(upstream.size() == s.size() && s.size() == y.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    y[i] = upstream[i] * s[i] * (real_t(1) - s[i]);
  charge_elementwise(s.size(), 3.0, 3.0 * sizeof(real_t));
}

void GpuBackend::ew_relu(std::span<const real_t> x,
                         std::span<real_t> y) {
  PARSGD_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] > 0 ? x[i] : real_t(0);
  }
  charge_elementwise(x.size(), 1.0, 2.0 * sizeof(real_t));
}

void GpuBackend::ew_relu_grad(std::span<const real_t> upstream,
                              std::span<const real_t> a,
                              std::span<real_t> y) {
  PARSGD_CHECK(upstream.size() == a.size() && a.size() == y.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    y[i] = a[i] > 0 ? upstream[i] : real_t(0);
  }
  charge_elementwise(a.size(), 1.0, 3.0 * sizeof(real_t));
}

void GpuBackend::ew_tanh(std::span<const real_t> x, std::span<real_t> y) {
  PARSGD_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = static_cast<real_t>(std::tanh(x[i]));
  }
  charge_elementwise(x.size(), kTranscendentalFlops, 2.0 * sizeof(real_t));
}

void GpuBackend::ew_tanh_grad(std::span<const real_t> upstream,
                              std::span<const real_t> a,
                              std::span<real_t> y) {
  PARSGD_CHECK(upstream.size() == a.size() && a.size() == y.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    y[i] = upstream[i] * (real_t(1) - a[i] * a[i]);
  }
  charge_elementwise(a.size(), 3.0, 3.0 * sizeof(real_t));
}

void GpuBackend::add_bias_rows(DenseMatrix& c,
                               std::span<const real_t> bias) {
  PARSGD_CHECK(bias.size() == c.cols());
  for (std::size_t r = 0; r < c.rows(); ++r) {
    auto row = c.row(r);
    for (std::size_t j = 0; j < row.size(); ++j) row[j] += bias[j];
  }
  charge_elementwise(c.size(), 1.0, 2.0 * sizeof(real_t));
}

void GpuBackend::col_sum(const DenseMatrix& c, std::span<real_t> out) {
  PARSGD_CHECK(out.size() == c.cols());
  std::fill(out.begin(), out.end(), real_t(0));
  for (std::size_t r = 0; r < c.rows(); ++r) {
    const auto row = c.row(r);
    for (std::size_t j = 0; j < row.size(); ++j) out[j] += row[j];
  }
  charge_elementwise(c.size(), 1.0, sizeof(real_t));
}

double GpuBackend::lr_loss_coefficients(std::span<const real_t> z,
                                        std::span<const real_t> y,
                                        std::span<real_t> coef) {
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  const double loss = host.lr_loss_coefficients(z, y, coef);
  charge_elementwise(z.size(), 2.0 * kTranscendentalFlops,
                     3.0 * sizeof(real_t));
  return loss;
}

double GpuBackend::svm_loss_coefficients(std::span<const real_t> z,
                                         std::span<const real_t> y,
                                         std::span<real_t> coef) {
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  const double loss = host.svm_loss_coefficients(z, y, coef);
  charge_elementwise(z.size(), 4.0, 3.0 * sizeof(real_t));
  return loss;
}

double GpuBackend::softmax_xent(const DenseMatrix& logits,
                                std::span<const real_t> y,
                                DenseMatrix& dlogits) {
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  const double loss = host.softmax_xent(logits, y, dlogits);
  charge_elementwise(logits.rows(), 3.0 * kTranscendentalFlops,
                     4.0 * sizeof(real_t));
  return loss;
}

}  // namespace parsgd::linalg
