// GPU backend over the gpusim SIMT simulator.
//
// Irregular kernels (CSR SpMV in both orientations) are executed through
// the warp-level simulator so coalescing, divergence from variable-length
// rows, and atomic scatter conflicts are *measured* from the actual access
// pattern. Dense, regular kernels (GEMV/GEMM/element-wise) compute their
// results with plain host loops and charge closed-form costs through
// launch_analytic — their access patterns are statically known, so
// simulating them lane-by-lane would add cost but no information
// (DESIGN.md §3).
#pragma once

#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "linalg/backend.hpp"

namespace parsgd::linalg {

struct GpuBackendOptions {
  int block_threads = 128;
  int gemm_tile = 16;  ///< shared-memory tile edge for the GEMM model
};

class GpuBackend final : public Backend {
 public:
  /// `device` must outlive the backend. Kernel stats accumulate on it; the
  /// sink's gpu_cycles mirror the device's sm_cycles for each call.
  GpuBackend(gpusim::Device& device, const GpuBackendOptions& opts = {});

  std::string name() const override;

  void gemv(const DenseMatrix& a, std::span<const real_t> x,
            std::span<real_t> y, bool transpose) override;
  void spmv(const CsrMatrix& a, std::span<const real_t> x,
            std::span<real_t> y, bool transpose) override;
  void spmv_t_axpy(real_t alpha, const CsrMatrix& a,
                   std::span<const real_t> x, std::span<real_t> y) override;
  void gemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c,
            bool trans_a, bool trans_b) override;
  void spmm(const CsrMatrix& a, const DenseMatrix& b,
            DenseMatrix& c) override;
  void spmm_at_b(const CsrMatrix& a, const DenseMatrix& b,
                 DenseMatrix& c) override;
  void axpy(real_t alpha, std::span<const real_t> x,
            std::span<real_t> y) override;
  void scale(std::span<real_t> x, real_t alpha) override;
  double dot(std::span<const real_t> x, std::span<const real_t> y) override;
  void ew_sigmoid(std::span<const real_t> x, std::span<real_t> y) override;
  void ew_sigmoid_grad(std::span<const real_t> upstream,
                       std::span<const real_t> s,
                       std::span<real_t> y) override;
  void ew_relu(std::span<const real_t> x, std::span<real_t> y) override;
  void ew_relu_grad(std::span<const real_t> upstream,
                    std::span<const real_t> a,
                    std::span<real_t> y) override;
  void ew_tanh(std::span<const real_t> x, std::span<real_t> y) override;
  void ew_tanh_grad(std::span<const real_t> upstream,
                    std::span<const real_t> a,
                    std::span<real_t> y) override;
  void add_bias_rows(DenseMatrix& c, std::span<const real_t> bias) override;
  void col_sum(const DenseMatrix& c, std::span<real_t> out) override;
  double lr_loss_coefficients(std::span<const real_t> z,
                              std::span<const real_t> y,
                              std::span<real_t> coef) override;
  double svm_loss_coefficients(std::span<const real_t> z,
                               std::span<const real_t> y,
                               std::span<real_t> coef) override;
  double softmax_xent(const DenseMatrix& logits, std::span<const real_t> y,
                      DenseMatrix& dlogits) override;

  gpusim::Device& device() { return device_; }

 private:
  /// Records `stats` cycles into the CostBreakdown sink.
  void charge(const gpusim::KernelStats& stats);
  /// Element-wise kernel helper: n elements, `flops_per_elem`,
  /// `bytes_per_elem` streamed.
  void charge_elementwise(std::size_t n, double flops_per_elem,
                          double bytes_per_elem);

  gpusim::Device& device_;
  GpuBackendOptions opts_;
  std::vector<real_t> spmv_t_buf_;  ///< A^T x of spmv_t_axpy (grow-only)
};

}  // namespace parsgd::linalg
