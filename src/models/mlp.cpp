#include "models/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "kernel/kernels.hpp"

namespace parsgd {

namespace {
inline double sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

inline double activate(Activation a, double v) {
  switch (a) {
    case Activation::kSigmoid: return sigmoid(v);
    case Activation::kRelu: return v > 0 ? v : 0.0;
    case Activation::kTanh: return std::tanh(v);
  }
  return v;
}

// Derivative expressed through the *activated* value (what backprop has).
inline double activate_grad(Activation a, double act) {
  switch (a) {
    case Activation::kSigmoid: return act * (1.0 - act);
    case Activation::kRelu: return act > 0 ? 1.0 : 0.0;
    case Activation::kTanh: return 1.0 - act * act;
  }
  return 1.0;
}
}  // namespace

const char* to_string(Activation a) {
  switch (a) {
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
  }
  return "?";
}

Mlp::Mlp(std::vector<std::size_t> layer_sizes, Activation activation)
    : sizes_(std::move(layer_sizes)), activation_(activation) {
  PARSGD_CHECK(sizes_.size() >= 2, "MLP needs at least input+output layers");
  PARSGD_CHECK(sizes_.back() == 2, "output layer must have 2 units");
  for (std::size_t k = 0; k + 1 < sizes_.size(); ++k) {
    w_off_.push_back(dim_);
    dim_ += sizes_[k] * sizes_[k + 1];
    b_off_.push_back(dim_);
    dim_ += sizes_[k + 1];
  }
}

std::vector<real_t> Mlp::init_params(std::uint64_t seed) const {
  Rng rng(seed);
  std::vector<real_t> w(dim_);
  for (std::size_t k = 0; k + 1 < sizes_.size(); ++k) {
    const double scale = 1.0 / std::sqrt(static_cast<double>(sizes_[k]));
    for (std::size_t i = 0; i < sizes_[k] * sizes_[k + 1]; ++i) {
      w[w_off_[k] + i] = static_cast<real_t>(rng.normal(0.0, scale));
    }
    // biases start at zero
  }
  return w;
}

namespace {

/// Per-thread buffers of the blocked driver. Layer buffers are unit-major
/// with one lane per example: entry (unit j, example b) sits at
/// j * lanes + b.
struct BlockScratch {
  std::vector<real_t> rows;  ///< [lanes][d] sparse rows folded dense
  std::vector<real_t> xt;    ///< [d][lanes] a staged block, feature-major
  std::vector<std::vector<double>> acts;  ///< acts[k]: [s_k][lanes], k >= 1
  std::vector<double> delta, next;        ///< [s_k][lanes]
  std::vector<double> grad;   ///< dim() entries: one batch's gradient
  std::vector<double> grad0;  ///< [s_1][d]: the input layer's weights
};

thread_local BlockScratch tls_scratch;

/// A block of nb <= lanes examples: row b at x + b * ldx, label y[b].
struct Block {
  const real_t* x;
  std::size_t ldx;
  std::size_t nb;
  const real_t* y;
  /// The block feature-major from the matrix's cached example blocks,
  /// or null: run_block stages it.
  const real_t* xt;
};

/// The cached example blocks the driver reads `data`'s dense rows from,
/// or null where it stages every block: sparse rows, or one lane (a row
/// is its own block). Looked up once per driver call, since the lookup
/// locks a mutex.
const DenseExampleBlocks* cached_blocks(const TrainData& data,
                                        bool prefer_dense,
                                        std::size_t lanes) {
  return prefer_dense && data.has_dense() && lanes > 1
             ? &data.dense->example_blocks(lanes)
             : nullptr;
}

/// Length of the block at example i of a range that ends at `end`. Over
/// cached example blocks a block ends at the next lane boundary, so an
/// unaligned range pays one short staged block and then reads the cache.
std::size_t block_len(std::size_t i, std::size_t end, std::size_t lanes,
                      const DenseExampleBlocks* eb) {
  return std::min(lanes - (eb != nullptr ? i % lanes : 0), end - i);
}

/// Folds sparse rows into the dense [nb][d] block buffer (CSR columns
/// are distinct, so each nonzero lands in its own slot).
template <class RowOf>
const real_t* fold_rows(std::size_t nb, std::size_t d, RowOf&& row_of) {
  std::vector<real_t>& rows = tls_scratch.rows;
  rows.assign(nb * d, real_t(0));
  for (std::size_t b = 0; b < nb; ++b) {
    const SparseRowView r = row_of(b);
    for (std::size_t k = 0; k < r.nnz(); ++k) {
      rows[b * d + r.idx[k]] = r.val[k];
    }
  }
  return rows.data();
}

Block stage(const TrainData& data, std::size_t i, std::size_t nb,
            bool prefer_dense, const DenseExampleBlocks* eb) {
  const std::size_t d = data.d();
  const real_t* y = data.y.data() + i;
  if (prefer_dense && data.has_dense()) {
    // A cached block holds rows [i, i + lanes) from an aligned i, zero
    // past the last row: it is this block when it is full or ends there.
    const bool cached =
        eb != nullptr && i % eb->lanes == 0 &&
        (nb == eb->lanes || i + nb == data.dense->rows());
    return {data.dense->row(i).data(), d, nb, y,
            cached ? eb->block(i / eb->lanes) : nullptr};
  }
  const real_t* rows =
      fold_rows(nb, d, [&](std::size_t b) { return data.sparse->row(i + b); });
  return {rows, d, nb, y, nullptr};
}

Block stage(const ExampleView& x, std::size_t d, const real_t& y) {
  if (x.is_dense()) {
    PARSGD_CHECK(x.dense_features().size() == d,
                 "input width " << x.dense_features().size() << " != " << d);
    return {x.dense_features().data(), d, 1, &y, nullptr};
  }
  // CSR rows are sorted: the last index is the widest.
  const SparseRowView& r = x.sparse_features();
  PARSGD_CHECK(r.nnz() == 0 || r.idx.back() < d,
               "feature " << r.idx.back() << " past input width " << d);
  return {fold_rows(1, d, [&](std::size_t) { return r; }), d, 1, &y,
          nullptr};
}

/// z[j][b] += bias[j], then the hidden activation, for lanes b < nb.
void finish_layer(double* z, const real_t* bias, std::size_t out,
                  std::size_t lanes, std::size_t nb, bool hidden,
                  Activation act) {
  for (std::size_t j = 0; j < out; ++j) {
    double* zj = z + j * lanes;
    for (std::size_t b = 0; b < nb; ++b) {
      zj[b] += bias[j];
      if (hidden) zj[b] = activate(act, zj[b]);
    }
  }
}

void check_width(const Mlp& m, std::size_t d) {
  PARSGD_CHECK(d == m.layers()[0],
               "input width " << d << " != " << m.layers()[0]);
}

// Every accumulation keeps the per-example order of a one-example-at-a-
// time forward/backprop: per (example, unit) the input sum runs in
// increasing feature order then adds the bias, and every gradient entry
// folds the examples in index order. Lanes never mix, so the block size
// changes no bit (DESIGN.md §14).
void run_block(const Mlp& m, const kernel::Kernels& kn, const Block& blk,
               std::span<const real_t> w, double* loss, double* grad,
               double* grad0) {
  BlockScratch& s = tls_scratch;
  const std::vector<std::size_t>& sizes = m.layers();
  const std::size_t L = m.num_layers(), lanes = kn.lanes, nb = blk.nb;
  const std::size_t d = sizes[0];

  // Forward. The input layer is one block GEMM over the block
  // feature-major, zero past lane nb: cached, or staged here (one lane
  // is the row itself).
  const real_t* xt = blk.xt != nullptr ? blk.xt : blk.x;
  if (lanes > 1 && blk.xt == nullptr) {
    s.xt.resize(d * lanes);
    if (nb < lanes) std::fill(s.xt.begin(), s.xt.end(), real_t(0));
    for (std::size_t b = 0; b < nb; ++b) {
      const real_t* row = blk.x + b * blk.ldx;
      real_t* lane = s.xt.data() + b;
      for (std::size_t p = 0; p < d; ++p) lane[p * lanes] = row[p];
    }
    xt = s.xt.data();
  }
  s.acts.resize(L + 1);
  for (std::size_t k = 0; k < L; ++k) {
    const std::size_t in = sizes[k], out = sizes[k + 1];
    std::vector<double>& z = s.acts[k + 1];
    z.assign(out * lanes, 0.0);
    const real_t* W = w.data() + m.weight_offset(k);
    if (k == 0) {
      kn.block_gemm(xt, W, out, z.data(), d, out);
    } else {
      const double* a = s.acts[k].data();
      for (std::size_t i = 0; i < in; ++i) {
        const double* ai = a + i * lanes;
        for (std::size_t j = 0; j < out; ++j) {
          const double wij = W[i * out + j];
          double* zj = z.data() + j * lanes;
          for (std::size_t b = 0; b < nb; ++b) zj[b] += ai[b] * wij;
        }
      }
    }
    finish_layer(z.data(), w.data() + m.bias_offset(k), out, lanes, nb,
                 k + 1 < L, m.activation());
  }

  // Softmax cross-entropy on the 2 logits; delta = softmax - onehot.
  const double* logits = s.acts[L].data();
  s.delta.resize(*std::max_element(sizes.begin() + 1, sizes.end()) *
                 lanes);
  s.next.resize(s.delta.size());
  double* delta = s.delta.data();
  for (std::size_t b = 0; b < nb; ++b) {
    const double a = logits[b], b2 = logits[lanes + b];
    const double mx = std::max(a, b2);
    const double ea = std::exp(a - mx), eb = std::exp(b2 - mx);
    const double p1 = eb / (ea + eb);
    const int cls = blk.y[b] > 0 ? 1 : 0;
    if (loss != nullptr) {
      loss[b] = -std::log(std::max(1e-12, cls == 1 ? p1 : 1.0 - p1));
    }
    delta[b] = (1.0 - p1) - (cls == 0);
    delta[lanes + b] = p1 - (cls == 1);
  }
  if (grad == nullptr) return;

  // Backward.
  double* next = s.next.data();
  for (std::size_t k = L; k-- > 0;) {
    const std::size_t in = sizes[k], out = sizes[k + 1];
    double* gb = grad + m.bias_offset(k);
    for (std::size_t j = 0; j < out; ++j) {
      for (std::size_t b = 0; b < nb; ++b) gb[j] += delta[j * lanes + b];
    }
    if (k == 0) {
      kn.block_ger(blk.x, blk.ldx, nb, delta, grad0, d, d, out);
      break;
    }
    const real_t* W = w.data() + m.weight_offset(k);
    double* gW = grad + m.weight_offset(k);
    const double* a = s.acts[k].data();
    for (std::size_t i = 0; i < in; ++i) {
      const double* ai = a + i * lanes;
      const real_t* row = W + i * out;
      double* grow = gW + i * out;
      double* up = next + i * lanes;
      std::fill(up, up + nb, 0.0);
      for (std::size_t j = 0; j < out; ++j) {
        const double* dj = delta + j * lanes;
        double g = grow[j];
        for (std::size_t b = 0; b < nb; ++b) g += ai[b] * dj[b];
        grow[j] = g;
        const double wij = row[j];
        for (std::size_t b = 0; b < nb; ++b) up[b] += wij * dj[b];
      }
      for (std::size_t b = 0; b < nb; ++b) {
        up[b] *= activate_grad(m.activation(), ai[b]);
      }
    }
    std::swap(delta, next);
  }
}

/// One gradient step over examples [begin, end) staged block by block
/// (blocks cut by block_len over `eb`): w_write -= scale * (summed
/// gradient at w_read). The input layer's weight gradient accumulates in
/// grad0 and is copied into the gradient once per step.
template <class StageBlock>
void step_blocks(const Mlp& m, const kernel::Kernels& kn, std::size_t begin,
                 std::size_t end, const DenseExampleBlocks* eb,
                 StageBlock&& stage_block, double scale,
                 std::span<const real_t> w_read, std::span<real_t> w_write) {
  BlockScratch& s = tls_scratch;
  const std::size_t d = m.layers()[0], out = m.layers()[1];
  s.grad.assign(m.dim(), 0.0);
  s.grad0.assign(out * d, 0.0);
  for (std::size_t i = begin, nb; i < end; i += nb) {
    nb = block_len(i, end, kn.lanes, eb);
    run_block(m, kn, stage_block(i, nb), w_read, nullptr, s.grad.data(),
              s.grad0.data());
  }
  double* g = s.grad.data() + m.weight_offset(0);
  for (std::size_t p = 0; p < d; ++p) {
    for (std::size_t j = 0; j < out; ++j) g[p * out + j] = s.grad0[j * d + p];
  }
  for (std::size_t j = 0; j < s.grad.size(); ++j) {
    if (s.grad[j] != 0.0) {
      w_write[j] -= static_cast<real_t>(scale * s.grad[j]);
    }
  }
}

}  // namespace

double Mlp::example_loss(const ExampleView& x, real_t y,
                         std::span<const real_t> w) const {
  double loss = 0;
  run_block(*this, kernel::active_kernels(), stage(x, sizes_[0], y), w, &loss,
            nullptr, nullptr);
  return loss;
}

void Mlp::example_losses(const TrainData& data, std::size_t begin,
                         std::size_t end, bool prefer_dense,
                         std::span<const real_t> w, double* out) const {
  check_width(*this, data.d());
  const kernel::Kernels& kn = kernel::active_kernels();
  const DenseExampleBlocks* eb = cached_blocks(data, prefer_dense, kn.lanes);
  for (std::size_t i = begin, nb; i < end; i += nb) {
    nb = block_len(i, end, kn.lanes, eb);
    run_block(*this, kn, stage(data, i, nb, prefer_dense, eb), w,
              out + (i - begin), nullptr, nullptr);
  }
}

void Mlp::example_step(const ExampleView& x, real_t y, real_t alpha,
                       std::span<const real_t> w_read,
                       std::span<real_t> w_write,
                       std::vector<index_t>* touched) const {
  const Block blk = stage(x, sizes_[0], y);
  step_blocks(
      *this, kernel::active_kernels(), 0, 1, nullptr,
      [&](std::size_t, std::size_t) { return blk; }, alpha, w_read, w_write);
  if (touched != nullptr) touched->clear();  // dense update: "all"
}

void Mlp::batch_step(const TrainData& data, std::size_t begin,
                     std::size_t end, bool prefer_dense, real_t alpha,
                     std::span<const real_t> w_read,
                     std::span<real_t> w_write) const {
  check_width(*this, data.d());
  const kernel::Kernels& kn = kernel::active_kernels();
  const DenseExampleBlocks* eb = cached_blocks(data, prefer_dense, kn.lanes);
  step_blocks(
      *this, kn, begin, end, eb,
      [&](std::size_t i, std::size_t nb) {
        return stage(data, i, nb, prefer_dense, eb);
      },
      alpha / static_cast<double>(end - begin), w_read, w_write);
}

double Mlp::sync_epoch(linalg::Backend& backend, const TrainData& data,
                       bool use_dense, real_t alpha,
                       std::span<real_t> w) const {
  const std::size_t L = num_layers();
  const std::size_t n = data.n();
  check_width(*this, data.d());

  // Forward: A_{k+1} = act(A_k W_k + b_k), A_0 = X.
  std::vector<DenseMatrix> acts(L + 1);
  for (std::size_t k = 1; k <= L; ++k) acts[k] = DenseMatrix(n, sizes_[k]);

  for (std::size_t k = 0; k < L; ++k) {
    DenseMatrix wk(sizes_[k], sizes_[k + 1]);
    std::copy_n(w.data() + w_off_[k], wk.size(), wk.data().begin());
    if (k == 0 && !(use_dense && data.has_dense())) {
      backend.spmm(*data.sparse, wk, acts[1]);
    } else {
      const DenseMatrix& in = k == 0 ? *data.dense : acts[k];
      backend.gemm(in, wk, acts[k + 1], false, false);
    }
    backend.add_bias_rows(
        acts[k + 1],
        std::span<const real_t>(w.data() + b_off_[k], sizes_[k + 1]));
    if (k + 1 < L) {
      switch (activation_) {
        case Activation::kSigmoid:
          backend.ew_sigmoid(acts[k + 1].data(), acts[k + 1].data());
          break;
        case Activation::kRelu:
          backend.ew_relu(acts[k + 1].data(), acts[k + 1].data());
          break;
        case Activation::kTanh:
          backend.ew_tanh(acts[k + 1].data(), acts[k + 1].data());
          break;
      }
    }
  }

  // Loss + output delta.
  DenseMatrix delta(n, 2);
  const double loss = backend.softmax_xent(acts[L], data.y, delta);

  // Backward.
  const double scale = alpha / static_cast<double>(n);
  for (std::size_t k = L; k-- > 0;) {
    const std::size_t in_w = sizes_[k], out_w = sizes_[k + 1];
    DenseMatrix gW(in_w, out_w);
    if (k == 0 && !(use_dense && data.has_dense())) {
      backend.spmm_at_b(*data.sparse, delta, gW);
    } else {
      const DenseMatrix& a_in = k == 0 ? *data.dense : acts[k];
      backend.gemm(a_in, delta, gW, /*trans_a=*/true, /*trans_b=*/false);
    }
    std::vector<real_t> gb(out_w);
    backend.col_sum(delta, gb);

    if (k > 0) {
      // delta_prev = (delta W_k^T) ⊙ sigmoid'(A_k)
      DenseMatrix wk(in_w, out_w);
      std::copy_n(w.data() + w_off_[k], wk.size(), wk.data().begin());
      DenseMatrix dprev(n, in_w);
      backend.gemm(delta, wk, dprev, false, /*trans_b=*/true);
      switch (activation_) {
        case Activation::kSigmoid:
          backend.ew_sigmoid_grad(dprev.data(), acts[k].data(),
                                  dprev.data());
          break;
        case Activation::kRelu:
          backend.ew_relu_grad(dprev.data(), acts[k].data(), dprev.data());
          break;
        case Activation::kTanh:
          backend.ew_tanh_grad(dprev.data(), acts[k].data(), dprev.data());
          break;
      }
      delta = std::move(dprev);
    }

    // Apply updates.
    backend.axpy(static_cast<real_t>(-scale), gW.data(),
                 std::span<real_t>(w.data() + w_off_[k], gW.size()));
    backend.axpy(static_cast<real_t>(-scale), gb,
                 std::span<real_t>(w.data() + b_off_[k], out_w));
  }
  return loss;
}

double Mlp::step_flops(std::size_t touched_features) const {
  // Forward ~2 flops/weight, backward ~4 flops/weight; first layer scales
  // with the touched input features instead of the full input width.
  const std::size_t L = num_layers();
  double weights_rest = 0;
  for (std::size_t k = 1; k < L; ++k) {
    weights_rest += static_cast<double>(sizes_[k]) * sizes_[k + 1];
  }
  const double first =
      static_cast<double>(touched_features) * sizes_[1];
  return 6.0 * (first + weights_rest) +
         3.0 * linalg::kTranscendentalFlops;
}

}  // namespace parsgd
