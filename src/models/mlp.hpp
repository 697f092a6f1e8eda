// Fully-connected multi-layer perceptron with a 2-way softmax
// cross-entropy output — the deep-net task of the paper (architectures
// like 54-10-5-2, Table I). Hidden activations default to sigmoid (the
// paper's setting); ReLU and tanh are available for the extension
// experiments. Every per-example path (batch_step, the dataset_loss
// chunks, example_loss/example_step) runs one blocked forward/backward
// driver over blocks of the active SIMD kernels' lane count, bit-identical
// to a one-example-at-a-time pass (DESIGN.md §15).
#pragma once

#include "models/model.hpp"

namespace parsgd {

enum class Activation { kSigmoid, kRelu, kTanh };

const char* to_string(Activation a);

class Mlp final : public Model {
 public:
  /// `layer_sizes` includes the input width and ends with the number of
  /// classes, e.g. {54, 10, 5, 2}.
  explicit Mlp(std::vector<std::size_t> layer_sizes,
               Activation activation = Activation::kSigmoid);

  std::string name() const override { return "MLP"; }
  std::size_t dim() const override { return dim_; }
  const std::vector<std::size_t>& layers() const { return sizes_; }
  Activation activation() const { return activation_; }

  std::vector<real_t> init_params(std::uint64_t seed) const override;
  double example_loss(const ExampleView& x, real_t y,
                      std::span<const real_t> w) const override;
  /// Runs [begin, end) forward in blocks of the active kernels' lanes.
  void example_losses(const TrainData& data, std::size_t begin,
                      std::size_t end, bool prefer_dense,
                      std::span<const real_t> w, double* out) const override;
  void example_step(const ExampleView& x, real_t y, real_t alpha,
                    std::span<const real_t> w_read,
                    std::span<real_t> w_write,
                    std::vector<index_t>* touched) const override;
  bool sparse_updates() const override { return false; }
  void batch_step(const TrainData& data, std::size_t begin, std::size_t end,
                  bool prefer_dense, real_t alpha,
                  std::span<const real_t> w_read,
                  std::span<real_t> w_write) const override;
  double sync_epoch(linalg::Backend& backend, const TrainData& data,
                    bool use_dense, real_t alpha,
                    std::span<real_t> w) const override;
  double step_flops(std::size_t touched_features) const override;

  /// Weight-matrix parameter offset for layer k (W_k is s_k x s_{k+1},
  /// row-major); bias follows immediately.
  std::size_t weight_offset(std::size_t k) const { return w_off_[k]; }
  std::size_t bias_offset(std::size_t k) const { return b_off_[k]; }
  std::size_t num_layers() const { return sizes_.size() - 1; }

 private:
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> w_off_, b_off_;
  std::size_t dim_ = 0;
  Activation activation_ = Activation::kSigmoid;
};

}  // namespace parsgd
