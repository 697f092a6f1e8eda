// Unified linear-algebra primitive API — the role ViennaCL plays in the
// paper (§III-A): one set of blocking primitives, implemented for
// multi-thread CPU and for GPU, over dense and sparse data. Synchronous SGD
// is expressed exclusively through these calls, so switching architecture
// is a one-line backend swap, exactly like the paper's "identical
// implementations, only compiled with different flags".
//
// Every primitive accumulates its work into a CostBreakdown sink; the CPU
// backend records flops/bytes (converted to time by hwmodel::CpuModel) and
// the GPU backend records simulated SIMT cycles (gpusim).
#pragma once

#include <cmath>
#include <memory>
#include <span>
#include <string>

#include "common/check.hpp"
#include "hwmodel/cost.hpp"
#include "matrix/csr_matrix.hpp"
#include "matrix/dense_matrix.hpp"

namespace parsgd::linalg {

using parsgd::CostBreakdown;
using parsgd::CsrMatrix;
using parsgd::DenseMatrix;
using parsgd::real_t;

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string name() const = 0;

  /// Where primitive costs are accumulated. Never null after set_sink().
  void set_sink(CostBreakdown* sink) { sink_ = sink; }

  // ---- matrix-vector ----
  /// y = A x, or y = A^T x when transpose. A is dense row-major.
  virtual void gemv(const DenseMatrix& a, std::span<const real_t> x,
                    std::span<real_t> y, bool transpose) = 0;
  /// y = A x (CSR), or y = A^T x when transpose.
  virtual void spmv(const CsrMatrix& a, std::span<const real_t> x,
                    std::span<real_t> y, bool transpose) = 0;
  /// y += alpha A^T x (CSR): the sparse gradient update of a full-batch
  /// epoch. Bit-identical to spmv(a, x, g, true) then axpy(alpha, g, y),
  /// and charged exactly as those two calls.
  virtual void spmv_t_axpy(real_t alpha, const CsrMatrix& a,
                           std::span<const real_t> x,
                           std::span<real_t> y) = 0;
  /// spmv_t_axpy with y over A's touched columns J kept in y_J, in
  /// CsrMatrix::column_bands().cols order: y_J holds y's current values
  /// there on entry (y itself may hold older ones) and the updated ones
  /// on return. Off J, y ends as spmv_t_axpy leaves it. Over J, y is not
  /// read, and is left as it was or brought up to date. Same charges as
  /// spmv_t_axpy. The default writes y_J into y, runs spmv_t_axpy, then
  /// gathers y_J.
  virtual void spmv_t_axpy_compact(real_t alpha, const CsrMatrix& a,
                                   std::span<const real_t> x,
                                   std::span<real_t> y,
                                   std::span<real_t> y_J) {
    const std::span<const parsgd::index_t> cols = a.column_bands().cols;
    PARSGD_CHECK(y_J.size() == cols.size());
    for (std::size_t p = 0; p < cols.size(); ++p) y[cols[p]] = y_J[p];
    spmv_t_axpy(alpha, a, x, y);
    for (std::size_t p = 0; p < cols.size(); ++p) y_J[p] = y[cols[p]];
  }

  // ---- matrix-matrix (MLP layers) ----
  /// c = op(A) op(B); shapes must agree.
  virtual void gemm(const DenseMatrix& a, const DenseMatrix& b,
                    DenseMatrix& c, bool trans_a, bool trans_b) = 0;
  /// c = A (CSR) * B (dense).
  virtual void spmm(const CsrMatrix& a, const DenseMatrix& b,
                    DenseMatrix& c) = 0;
  /// c = A^T (CSR, a is n x d) * B (dense, n x m) -> c is d x m. The
  /// sparse first-layer weight gradient of the MLP backward pass.
  virtual void spmm_at_b(const CsrMatrix& a, const DenseMatrix& b,
                         DenseMatrix& c) = 0;

  // ---- vector / element-wise ----
  virtual void axpy(real_t alpha, std::span<const real_t> x,
                    std::span<real_t> y) = 0;
  virtual void scale(std::span<real_t> x, real_t alpha) = 0;
  virtual double dot(std::span<const real_t> x,
                     std::span<const real_t> y) = 0;
  virtual void ew_sigmoid(std::span<const real_t> x,
                          std::span<real_t> y) = 0;
  /// y = x * s * (1 - s) given s = sigmoid output (backprop through
  /// sigmoid).
  virtual void ew_sigmoid_grad(std::span<const real_t> upstream,
                               std::span<const real_t> s,
                               std::span<real_t> y) = 0;
  /// y = max(0, x).
  virtual void ew_relu(std::span<const real_t> x, std::span<real_t> y) = 0;
  /// y = upstream * (a > 0) given a = relu output.
  virtual void ew_relu_grad(std::span<const real_t> upstream,
                            std::span<const real_t> a,
                            std::span<real_t> y) = 0;
  /// y = tanh(x).
  virtual void ew_tanh(std::span<const real_t> x, std::span<real_t> y) = 0;
  /// y = upstream * (1 - a^2) given a = tanh output.
  virtual void ew_tanh_grad(std::span<const real_t> upstream,
                            std::span<const real_t> a,
                            std::span<real_t> y) = 0;

  /// c[r][j] += bias[j] for every row r.
  virtual void add_bias_rows(DenseMatrix& c,
                             std::span<const real_t> bias) = 0;
  /// out[j] = sum_r c[r][j].
  virtual void col_sum(const DenseMatrix& c, std::span<real_t> out) = 0;

  // ---- fused objective kernels ----
  /// Given margins z_i = w·x_i and labels y_i in {-1,+1}:
  ///   coef_i = -y_i * sigmoid(-y_i z_i)          (d logistic loss / dz)
  /// Returns sum_i log(1 + exp(-y_i z_i)).
  virtual double lr_loss_coefficients(std::span<const real_t> z,
                                      std::span<const real_t> y,
                                      std::span<real_t> coef) = 0;
  /// Hinge loss: coef_i = -y_i if y_i z_i < 1 else 0.
  /// Returns sum_i max(0, 1 - y_i z_i).
  virtual double svm_loss_coefficients(std::span<const real_t> z,
                                       std::span<const real_t> y,
                                       std::span<real_t> coef) = 0;
  /// Softmax cross-entropy over 2-class logits (n x 2). Fills dlogits with
  /// (softmax - onehot)/1 and returns summed loss. Labels in {-1,+1} map to
  /// classes {0,1}.
  virtual double softmax_xent(const DenseMatrix& logits,
                              std::span<const real_t> y,
                              DenseMatrix& dlogits) = 0;

 protected:
  CostBreakdown& sink() {
    PARSGD_DCHECK(sink_ != nullptr);
    return *sink_;
  }
  CostBreakdown* sink_ = nullptr;
};

/// Cost per transcendental (exp/log) in flop-equivalents, used uniformly by
/// both backends so architectures are charged consistently.
inline constexpr double kTranscendentalFlops = 10.0;

/// One example's coefficient of lr_loss_coefficients from its float
/// margin z: -y * sigmoid(-y z). Shared by the CPU kernel and the
/// models' carried margin pass, so the two cannot drift.
inline real_t lr_coefficient(real_t z, real_t y) {
  const double yz = static_cast<double>(y) * z;
  return static_cast<real_t>(-static_cast<double>(y) *
                             (1.0 / (1.0 + std::exp(yz))));
}

/// One example's coefficient of svm_loss_coefficients: -y inside the
/// margin (y z < 1), else 0.
inline real_t svm_coefficient(real_t z, real_t y) {
  return static_cast<double>(y) * z < 1.0 ? -y : real_t(0);
}

}  // namespace parsgd::linalg
