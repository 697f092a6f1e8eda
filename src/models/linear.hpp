// Generalized linear models: logistic regression (LR) and linear SVM
// (hinge loss), the two convex tasks of the paper. Both share the margin
// structure z = w·x; they differ only in loss(z, y) and dloss/dz.
#pragma once

#include "models/model.hpp"

namespace parsgd {

/// Common machinery for margin-based linear models.
class LinearModel : public Model {
 public:
  explicit LinearModel(std::size_t features) : d_(features) {}

  std::size_t dim() const override { return d_; }
  std::vector<real_t> init_params(std::uint64_t seed) const override;

  double example_loss(const ExampleView& x, real_t y,
                      std::span<const real_t> w) const override;
  /// Dense rows take their margins examples in lanes
  /// (linalg::dense_row_dots), the same values as example_loss's.
  void example_losses(const TrainData& data, std::size_t begin,
                      std::size_t end, bool prefer_dense,
                      std::span<const real_t> w, double* out) const override;
  void example_step(const ExampleView& x, real_t y, real_t alpha,
                    std::span<const real_t> w_read,
                    std::span<real_t> w_write,
                    std::vector<index_t>* touched) const override;
  bool sparse_updates() const override { return true; }
  void batch_step(const TrainData& data, std::size_t begin, std::size_t end,
                  bool prefer_dense, real_t alpha,
                  std::span<const real_t> w_read,
                  std::span<real_t> w_write) const override;
  TaskGraph::TaskId batch_step_graph(
      TaskGraph& graph, BatchGraphScratch& scratch, const TrainData& data,
      std::size_t begin, std::size_t end, bool prefer_dense, real_t alpha,
      std::span<const real_t> w_read, std::span<real_t> w_write,
      TaskGraph::TaskId after) const override;
  double sync_epoch(linalg::Backend& backend, const TrainData& data,
                    bool use_dense, real_t alpha,
                    std::span<real_t> w) const override;
  /// sync_epoch with the loss evaluation of the updated w folded in
  /// (DESIGN.md §9). When `carry` holds the margins of this epoch's rows
  /// and layout, its coefficients replace the forward pass and the
  /// coefficient kernel. After the update one margin pass over the new w,
  /// on `pool` when it has workers, restages the carry: each example's
  /// double margin and loss with dataset_loss's arithmetic (summed in
  /// index order into carry->loss, the loss of the updated w), and its
  /// coefficient from the float-rounded margin. On sparse rows the update
  /// goes to carry->w_J only and w lags it over J (EpochCarry::settle).
  /// A null carry is the plain sync_epoch, its loss dropped.
  void sync_epoch(linalg::Backend& backend, const TrainData& data,
                  bool use_dense, real_t alpha, std::span<real_t> w,
                  EpochCarry* carry, ThreadPool* pool) const;
  double step_flops(std::size_t touched_features) const override;

 public:
  /// loss(z, y) for one example given margin z = w.x.
  virtual double margin_loss(double z, double y) const = 0;
  /// d loss / d z — exposed for extensions (e.g. low-precision SGD).
  virtual double margin_grad(double z, double y) const = 0;

 protected:
  /// Fused batch kernel selector (lr_ or svm_loss_coefficients).
  virtual double coefficients(linalg::Backend& backend,
                              std::span<const real_t> z,
                              std::span<const real_t> y,
                              std::span<real_t> coef) const = 0;
  /// One example of the carried margin pass: returns margin_loss(z, y)
  /// and sets `coef` to the coefficient kernel's value at float(z). One
  /// virtual call per example: with two, the covtype pass measured 2x
  /// slower.
  virtual double loss_and_coefficient(double z, real_t y,
                                      real_t& coef) const = 0;

 private:
  /// The forward pass z = X w and the coefficient kernel: coef at w, and
  /// the loss from the float margins.
  double forward_coefficients(linalg::Backend& backend, const TrainData& data,
                              bool dense, std::span<const real_t> w,
                              std::span<real_t> coef) const;
  /// w -= alpha / n * X^T coef, the mean gradient. For sparse rows a
  /// non-empty w_J holds w over their touched columns and takes the
  /// update there in place of w (Backend::spmv_t_axpy_compact).
  void descend(linalg::Backend& backend, const TrainData& data, bool dense,
               real_t alpha, std::span<const real_t> coef,
               std::span<real_t> w, std::span<real_t> w_J) const;

  std::size_t d_;
};

class LogisticRegression final : public LinearModel {
 public:
  using LinearModel::LinearModel;
  std::string name() const override { return "LR"; }

 public:
  double margin_loss(double z, double y) const override;
  double margin_grad(double z, double y) const override;

 protected:
  double coefficients(linalg::Backend& backend, std::span<const real_t> z,
                      std::span<const real_t> y,
                      std::span<real_t> coef) const override;
  double loss_and_coefficient(double z, real_t y,
                              real_t& coef) const override {
    coef = linalg::lr_coefficient(static_cast<real_t>(z), y);
    return margin_loss(z, y);
  }
};

class LinearSvm final : public LinearModel {
 public:
  using LinearModel::LinearModel;
  std::string name() const override { return "SVM"; }

 public:
  double margin_loss(double z, double y) const override;
  double margin_grad(double z, double y) const override;

 protected:
  double coefficients(linalg::Backend& backend, std::span<const real_t> z,
                      std::span<const real_t> y,
                      std::span<real_t> coef) const override;
  double loss_and_coefficient(double z, real_t y,
                              real_t& coef) const override {
    coef = linalg::svm_coefficient(static_cast<real_t>(z), y);
    return margin_loss(z, y);
  }
};

}  // namespace parsgd
