#include "models/linear.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "kernel/kernels.hpp"
#include "linalg/cpu_backend.hpp"

namespace parsgd {

std::vector<real_t> LinearModel::init_params(std::uint64_t seed) const {
  // Small deterministic init; zero would also do for convex objectives but
  // a nonzero start exercises more of the code paths in tests.
  Rng rng(seed);
  std::vector<real_t> w(dim());
  for (auto& v : w) v = static_cast<real_t>(rng.normal(0.0, 0.01));
  return w;
}

double LinearModel::example_loss(const ExampleView& x, real_t y,
                                 std::span<const real_t> w) const {
  return margin_loss(x.dot(w), y);
}

void LinearModel::example_step(const ExampleView& x, real_t y, real_t alpha,
                               std::span<const real_t> w_read,
                               std::span<real_t> w_write,
                               std::vector<index_t>* touched) const {
  const double z = x.dot(w_read);
  const double coef = margin_grad(z, y);
  if (coef != 0.0) {
    // w_write[j] -= alpha * coef * x[j] over stored entries. Note: reads
    // come from w_read (possibly a stale snapshot under Hogwild).
    x.for_each([&](index_t j, real_t v) {
      w_write[j] -= static_cast<real_t>(alpha * coef * v);
    });
  }
  if (touched != nullptr) {
    touched->clear();
    if (coef != 0.0) {
      x.for_each([&](index_t j, real_t) { touched->push_back(j); });
    }
  }
}

void LinearModel::batch_step(const TrainData& data, std::size_t begin,
                             std::size_t end, bool prefer_dense, real_t alpha,
                             std::span<const real_t> w_read,
                             std::span<real_t> w_write) const {
  const double scale =
      1.0 / static_cast<double>(end - begin);  // mean gradient
  std::vector<double> grad(dim(), 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    const ExampleView x = data.example(i, prefer_dense);
    const double coef = margin_grad(x.dot(w_read), data.y[i]);
    if (coef == 0.0) continue;
    x.for_each([&](index_t j, real_t v) {
      grad[j] += coef * v;
    });
  }
  for (std::size_t j = 0; j < dim(); ++j) {
    if (grad[j] != 0.0) {
      w_write[j] -= static_cast<real_t>(alpha * scale * grad[j]);
    }
  }
}

namespace {

/// Fixed-grid decomposition knobs for batch_step_graph. All pool-size
/// independent — the grid depends only on (batch size, dim), which is
/// what keeps graph trajectories bit-identical across worker counts.
constexpr std::size_t kGraphMinBatch = 512;   ///< below: one task
constexpr std::size_t kGraphGrain = 128;      ///< examples per chunk
constexpr std::size_t kGraphMaxChunks = 16;
/// Budget (doubles) for the per-chunk dense partial gradients, so
/// high-dimensional sparse models (news20: d ~ 1.3M) stay at a few
/// chunks instead of allocating kGraphMaxChunks model-sized buffers.
constexpr std::size_t kGraphPartialBudget = std::size_t{1} << 22;

/// Even split of [0, n): same arithmetic as the pool's chunk grid.
inline void graph_chunk_range(std::size_t n, std::size_t chunks,
                              std::size_t c, std::size_t& lo,
                              std::size_t& hi) {
  const std::size_t base = n / chunks, extra = n % chunks;
  lo = c * base + std::min(c, extra);
  hi = lo + base + (c < extra ? 1 : 0);
}

}  // namespace

TaskGraph::TaskId LinearModel::batch_step_graph(
    TaskGraph& graph, BatchGraphScratch& scratch, const TrainData& data,
    std::size_t begin, std::size_t end, bool prefer_dense, real_t alpha,
    std::span<const real_t> w_read, std::span<real_t> w_write,
    TaskGraph::TaskId after) const {
  const std::size_t nb = end - begin;
  const std::size_t dim_cap =
      std::max<std::size_t>(1, kGraphPartialBudget / std::max<std::size_t>(
                                                         dim(), 1));
  const std::size_t chunks =
      nb < kGraphMinBatch
          ? 1
          : std::min({(nb + kGraphGrain - 1) / kGraphGrain,
                      kGraphMaxChunks, dim_cap});
  if (chunks <= 1) {
    // Small batch: one sequential task, bit-identical to batch_step.
    return Model::batch_step_graph(graph, scratch, data, begin, end,
                                   prefer_dense, alpha, w_read, w_write,
                                   after);
  }
  if (scratch.partial.size() < chunks) scratch.partial.resize(chunks);
  const TrainData* dp = &data;
  BatchGraphScratch* sp = &scratch;
  const std::size_t d = dim();

  // Gradient chunks: each accumulates its example slice into a private
  // partial (margins fused with accumulation — no shared writes), gated
  // only on the previous batch's update.
  std::vector<TaskGraph::TaskId> owner(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::size_t lo, hi;
    graph_chunk_range(nb, chunks, c, lo, hi);
    owner[c] = graph.add(
        [this, dp, sp, c, d, begin, lo, hi, prefer_dense, w_read] {
          std::vector<double>& g = sp->partial[c];
          g.assign(d, 0.0);
          for (std::size_t i = begin + lo; i < begin + hi; ++i) {
            const ExampleView x = dp->example(i, prefer_dense);
            const double coef = margin_grad(x.dot(w_read), dp->y[i]);
            if (coef == 0.0) continue;
            x.for_each([&](index_t j, real_t v) { g[j] += coef * v; });
          }
        },
        {after}, "grad_chunk");
  }

  // Partial tree reduction, fan-in 4 in a fixed merge order (group base
  // absorbs members in ascending stride order), so the summation grouping
  // is a function of `chunks` alone.
  for (std::size_t stride = 1; stride < chunks; stride *= 4) {
    for (std::size_t g0 = 0; g0 + stride < chunks; g0 += 4 * stride) {
      TaskGraph::TaskId deps[4] = {owner[g0], TaskGraph::kNoTask,
                                   TaskGraph::kNoTask, TaskGraph::kNoTask};
      for (std::size_t k = 1; k < 4 && g0 + k * stride < chunks; ++k) {
        deps[k] = owner[g0 + k * stride];
      }
      owner[g0] = graph.add(
          [sp, g0, stride, chunks, d] {
            std::vector<double>& dst = sp->partial[g0];
            for (std::size_t k = 1; k < 4 && g0 + k * stride < chunks;
                 ++k) {
              const std::vector<double>& src =
                  sp->partial[g0 + k * stride];
              for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
            }
          },
          std::span<const TaskGraph::TaskId>(deps, 4), "grad_merge");
    }
  }

  // Model update from the fully merged partial; the returned id is what
  // the next batch's gradient chunks depend on.
  const double scale = 1.0 / static_cast<double>(nb);
  return graph.add(
      [sp, d, alpha, scale, w_write] {
        const std::vector<double>& g = sp->partial[0];
        for (std::size_t j = 0; j < d; ++j) {
          if (g[j] != 0.0) {
            w_write[j] -= static_cast<real_t>(alpha * scale * g[j]);
          }
        }
      },
      {owner[0]}, "model_update");
}

double LinearModel::forward_coefficients(linalg::Backend& backend,
                                         const TrainData& data, bool dense,
                                         std::span<const real_t> w,
                                         std::span<real_t> coef) const {
  // z = X w
  std::vector<real_t> z(data.n());
  if (dense) {
    backend.gemv(*data.dense, w, z, /*transpose=*/false);
  } else {
    backend.spmv(*data.sparse, w, z, /*transpose=*/false);
  }
  // coef_i = dloss/dz_i; loss as by-product
  return coefficients(backend, z, data.y, coef);
}

void LinearModel::descend(linalg::Backend& backend, const TrainData& data,
                          bool dense, real_t alpha,
                          std::span<const real_t> coef, std::span<real_t> w,
                          std::span<real_t> w_J) const {
  // w -= alpha/n * X^T coef  (mean gradient, matching batch_step)
  const auto step =
      static_cast<real_t>(-alpha / static_cast<double>(data.n()));
  if (dense) {
    std::vector<real_t> grad(dim());
    backend.gemv(*data.dense, coef, grad, /*transpose=*/true);
    backend.axpy(step, grad, w);
  } else if (!w_J.empty()) {
    backend.spmv_t_axpy_compact(step, *data.sparse, coef, w, w_J);
  } else {
    // Fused: touches only the columns the data touches.
    backend.spmv_t_axpy(step, *data.sparse, coef, w);
  }
}

double LinearModel::sync_epoch(linalg::Backend& backend,
                               const TrainData& data, bool use_dense,
                               real_t alpha, std::span<real_t> w) const {
  const bool dense = use_dense && data.has_dense();
  std::vector<real_t> coef(data.n());
  const double loss = forward_coefficients(backend, data, dense, w, coef);
  descend(backend, data, dense, alpha, coef, w, {});
  return loss;
}

void LinearModel::sync_epoch(linalg::Backend& backend, const TrainData& data,
                             bool use_dense, real_t alpha,
                             std::span<real_t> w, EpochCarry* carry,
                             ThreadPool* pool) const {
  if (carry == nullptr) {
    sync_epoch(backend, data, use_dense, alpha, w);
    return;
  }
  const std::size_t n = data.n();
  const bool dense = use_dense && data.has_dense();
  std::vector<real_t> coef;
  if (carry->matches(data, dense)) {
    // The last epoch's loss evaluation already took these margins. w_J
    // stays ahead of w.
    coef = std::move(carry->coef);
    carry->sparse = nullptr;
    carry->dense = nullptr;
  } else {
    carry->settle(w);
    coef.resize(n);
    forward_coefficients(backend, data, dense, w, coef);
    if (!dense) {
      // w_J is w over J: kept ahead of w while the carry is valid, and
      // gathered from w otherwise.
      const std::span<const index_t> cols = data.sparse->column_bands().cols;
      carry->w_J.resize(cols.size());
      for (std::size_t p = 0; p < cols.size(); ++p) {
        carry->w_J[p] = w[cols[p]];
      }
    }
  }
  descend(backend, data, dense, alpha, coef, w, carry->w_J);
  // One margin pass over the updated w: its loss, and the next epoch's
  // coefficients. At det=on the forward kernels do ExampleView::dot's
  // arithmetic, so float(z) is the forward pass's output bit for bit.
  // Dense rows go examples in lanes over the cached example blocks
  // (linalg::dense_row_dots) and sparse rows read w_J band by band
  // (CsrColumnBands::row_dots): the same sums.
  const auto loss_terms = [&](std::size_t lo, std::size_t hi, double* out) {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i - lo] = loss_and_coefficient(out[i - lo], data.y[i], coef[i]);
    }
  };
  if (dense) {
    const kernel::Kernels& kn = kernel::active_kernels();
    carry->loss = sum_examples(
        n, pool, [&](std::size_t lo, std::size_t hi, double* out) {
          linalg::dense_row_dots(kn, *data.dense, w, lo, hi, out);
          loss_terms(lo, hi, out);
        });
  } else {
    const CsrColumnBands& cb = data.sparse->column_bands();
    carry->loss = sum_examples(
        n, pool, [&](std::size_t lo, std::size_t hi, double* out) {
          cb.row_dots(carry->w_J, lo, hi, out);
          loss_terms(lo, hi, out);
        });
  }
  carry->coef = std::move(coef);
  carry->sparse = dense ? nullptr : data.sparse;
  carry->dense = dense ? data.dense : nullptr;
  carry->w_lags = dense ? nullptr : data.sparse;
}

void LinearModel::example_losses(const TrainData& data, std::size_t begin,
                                 std::size_t end, bool prefer_dense,
                                 std::span<const real_t> w,
                                 double* out) const {
  if (!(prefer_dense && data.has_dense())) {
    Model::example_losses(data, begin, end, prefer_dense, w, out);
    return;
  }
  linalg::dense_row_dots(kernel::active_kernels(), *data.dense, w, begin,
                         end, out);
  for (std::size_t i = begin; i < end; ++i) {
    out[i - begin] = margin_loss(out[i - begin], data.y[i]);
  }
}

double LinearModel::step_flops(std::size_t touched_features) const {
  // dot (2*nnz) + coefficient (~transcendental) + axpy (2*nnz)
  return 4.0 * static_cast<double>(touched_features) +
         linalg::kTranscendentalFlops;
}

// ---- LR ----

double LogisticRegression::margin_loss(double z, double y) const {
  const double yz = y * z;
  return yz > 0 ? std::log1p(std::exp(-yz)) : -yz + std::log1p(std::exp(yz));
}

double LogisticRegression::margin_grad(double z, double y) const {
  return -y / (1.0 + std::exp(y * z));
}

double LogisticRegression::coefficients(linalg::Backend& backend,
                                        std::span<const real_t> z,
                                        std::span<const real_t> y,
                                        std::span<real_t> coef) const {
  return backend.lr_loss_coefficients(z, y, coef);
}

// ---- SVM ----

double LinearSvm::margin_loss(double z, double y) const {
  return std::max(0.0, 1.0 - y * z);
}

double LinearSvm::margin_grad(double z, double y) const {
  return y * z < 1.0 ? -y : 0.0;
}

double LinearSvm::coefficients(linalg::Backend& backend,
                               std::span<const real_t> z,
                               std::span<const real_t> y,
                               std::span<real_t> coef) const {
  return backend.svm_loss_coefficients(z, y, coef);
}

}  // namespace parsgd
