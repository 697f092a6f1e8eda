// Multi-thread CPU backend over the ThreadPool (the OpenMP role).
//
// Includes the ViennaCL behaviour the paper discovered in Fig. 6: GEMM is
// parallelized only when the *result* matrix has at least
// `gemm_parallel_threshold` elements; below that the product runs on one
// thread, which is why the paper's small MLPs see only ~2x CPU speedup.
//
// Hot kernels take a fast path (DESIGN.md "CPU backend fast path"):
// cache-blocked GEMM over operands resolved once per call, and
// parallelized transposed gemv/spmv whose reduction grids depend only on
// the problem shape, so results are bit-identical for every pool size.
// The transposed gemv cuts y into panels of one cache line: each task
// owns whole panels and writes each of its columns once. Both transposed
// sparse products run through one kernel over the matrix's band-blocked
// touched columns (CsrMatrix::column_bands): each task owns whole bands
// and writes only their columns. Dense margins in scalar order (the
// forward gemv at det=on, and the linear models' margin passes) read the
// matrix's cached example blocks (DenseMatrix::example_blocks) through
// the block_gemm kernel, examples in lanes (dense_row_dots).
// The innermost loops of those paths route through the dispatched SIMD
// microkernel table (src/kernel/, DESIGN.md §14) selected once at startup
// from CPUID. The CostBreakdown accounting is byte-for-byte the same as
// the naive kernels — the fast path changes wall-clock only, never
// modeled cost.
#pragma once

#include <memory>
#include <vector>

#include "kernel/kernels.hpp"
#include "linalg/backend.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd::linalg {

/// z[i - lo] = a.row(i) . w for the rows i in [lo, hi), through
/// kn.block_gemm with n = 1 over a's example blocks of kn.lanes (built on
/// first use; one lane reads the rows in place). Each margin folds the
/// exact double products of the features in increasing order from +0:
/// ExampleView::dot's value bit for bit, on every kernel variant.
void dense_row_dots(const kernel::Kernels& kn, const DenseMatrix& a,
                    std::span<const real_t> w, std::size_t lo,
                    std::size_t hi, double* z);

struct CpuBackendOptions {
  /// Logical threads of the modeled configuration (1 = cpu-seq, 56 =
  /// cpu-par on the paper's machine). Work is *executed* on the process
  /// thread pool; this count only controls the parallelization decisions
  /// (e.g. the GEMM threshold path) and is reported to the cost model.
  int threads = 1;
  /// Minimum result elements before GEMM uses multiple threads
  /// (ViennaCL's internal threshold; paper §IV-B measures it as >5000).
  std::size_t gemm_parallel_threshold = 5000;
  /// Execution pool for the kernels; nullptr = the process-global pool.
  /// Results are bit-identical for every pool size (deterministic
  /// reduction grids), so this is an execution knob, not a semantic one.
  ThreadPool* pool = nullptr;
  /// Pin the order-sensitive reductions (dot, spmv row products) to the
  /// scalar reference kernels so trajectories are bit-identical to the
  /// pre-SIMD arithmetic; the forward gemv then takes its margins through
  /// dense_row_dots, the same arithmetic. The remaining microkernels
  /// (axpy, scale, transposed-gemv bands, the GEMM micro-tile) stay
  /// vectorized in every mode because their contract guarantees
  /// bit-identical results to the scalar reference (kernel/kernels.hpp).
  /// Spec grammar: `det=on|off`.
  bool deterministic = true;
};

class CpuBackend final : public Backend {
 public:
  explicit CpuBackend(const CpuBackendOptions& opts = {});

  std::string name() const override;

  void gemv(const DenseMatrix& a, std::span<const real_t> x,
            std::span<real_t> y, bool transpose) override;
  void spmv(const CsrMatrix& a, std::span<const real_t> x,
            std::span<real_t> y, bool transpose) override;
  void spmv_t_axpy(real_t alpha, const CsrMatrix& a,
                   std::span<const real_t> x, std::span<real_t> y) override;
  void spmv_t_axpy_compact(real_t alpha, const CsrMatrix& a,
                           std::span<const real_t> x, std::span<real_t> y,
                           std::span<real_t> y_J) override;
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

  const CpuBackendOptions& options() const { return opts_; }

  /// True if the last gemm() call took the parallel path (test hook for
  /// the threshold behaviour).
  bool last_gemm_parallel() const { return last_gemm_parallel_; }

  /// Flops executed by GEMMs that stayed below the parallel threshold and
  /// therefore ran single-threaded (the Fig. 6 effect). Accumulates over
  /// the backend's lifetime.
  double gemm_serial_flops() const { return gemm_serial_flops_; }

 private:
  ThreadPool& pool() {
    return opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
  }
  /// spmv_t_axpy, and spmv_t_axpy_compact when y_J is not empty.
  void band_axpy(real_t alpha, const CsrMatrix& a,
                 std::span<const real_t> x, std::span<real_t> y,
                 std::span<real_t> y_J);

  CpuBackendOptions opts_;
  // Microkernel tables resolved once at construction: simd_ for the ops
  // whose vectorization is bit-exact vs scalar, reduce_ for the
  // order-sensitive reductions (== scalar table when deterministic).
  const kernel::Kernels* simd_ = nullptr;
  const kernel::Kernels* reduce_ = nullptr;
  bool last_gemm_parallel_ = false;
  double gemm_serial_flops_ = 0;
  // Scratch reused across calls (grow-only): packed transposed operands
  // for the blocked GEMM. A backend instance is used from one thread at a
  // time (the pool workers it fans out to write disjoint regions),
  // matching the existing sink() contract.
  std::vector<real_t> pack_a_;
  std::vector<real_t> pack_b_;
};

}  // namespace parsgd::linalg
