#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "data/generator.hpp"
#include "kernel/kernels.hpp"
#include "linalg/cpu_backend.hpp"
#include "models/gradcheck.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "spmv_t_reference.hpp"

namespace parsgd {
namespace {

Dataset tiny(const char* name, double scale = 500.0) {
  GeneratorOptions opts;
  opts.scale = scale;
  opts.seed = 77;
  return generate_dataset(name, opts);
}

TrainData train_of(const Dataset& ds) {
  TrainData t;
  t.sparse = &ds.x;
  t.dense = ds.x_dense ? &*ds.x_dense : nullptr;
  t.y = ds.y;
  return t;
}

// ---- gradient checks ----

TEST(LinearModels, LrGradCheckSparse) {
  const Dataset ds = tiny("w8a");
  LogisticRegression lr(ds.d());
  const auto w = lr.init_params(3);
  for (std::size_t i : {0u, 5u, 17u}) {
    const auto res =
        gradient_check(lr, ds.example(i, false), ds.y[i], w);
    EXPECT_LT(res.max_rel_err, 5e-2) << "example " << i;
  }
}

TEST(LinearModels, LrGradCheckDense) {
  const Dataset ds = tiny("covtype");
  LogisticRegression lr(ds.d());
  const auto w = lr.init_params(4);
  const auto res = gradient_check(lr, ds.example(0, true), ds.y[0], w);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(LinearModels, SvmGradCheckAwayFromHinge) {
  // The hinge kink breaks finite differences at margin 1; init near zero
  // keeps margins tiny (active side) where the subgradient is exact.
  const Dataset ds = tiny("w8a");
  LinearSvm svm(ds.d());
  std::vector<real_t> w(ds.d(), 0);  // margins all 0 < 1: active branch
  const auto res = gradient_check(svm, ds.example(2, false), ds.y[2], w);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(Mlp, GradCheckSmallNet) {
  const Dataset base = tiny("covtype");
  Mlp mlp({54, 10, 5, 2});
  const auto w = mlp.init_params(5);
  const auto res =
      gradient_check(mlp, base.example(1, true), base.y[1], w, 1e-2);
  EXPECT_LT(res.max_rel_err, 8e-2);
}

// ---- loss/step consistency ----

TEST(LinearModels, StepReducesExampleLoss) {
  const Dataset ds = tiny("real-sim");
  LogisticRegression lr(ds.d());
  auto w = lr.init_params(6);
  const auto x = ds.example(3, false);
  const double before = lr.example_loss(x, ds.y[3], w);
  std::vector<real_t> w2(w);
  lr.example_step(x, ds.y[3], real_t(0.5), w, w2, nullptr);
  EXPECT_LT(lr.example_loss(x, ds.y[3], w2), before);
}

TEST(LinearModels, TouchedMatchesSparsity) {
  const Dataset ds = tiny("w8a");
  LogisticRegression lr(ds.d());
  auto w = lr.init_params(7);
  std::vector<index_t> touched;
  std::vector<real_t> w2(w);
  // Find an example with nonzero features.
  for (std::size_t i = 0; i < ds.n(); ++i) {
    const auto x = ds.example(i, false);
    if (x.touched() == 0) continue;
    lr.example_step(x, ds.y[i], real_t(0.1), w, w2, &touched);
    EXPECT_EQ(touched.size(), x.touched());
    break;
  }
  EXPECT_TRUE(lr.sparse_updates());
}

TEST(LinearModels, EmptyExampleIsNoop) {
  LogisticRegression lr(10);
  std::vector<real_t> w(10, 1), w2(w);
  const auto x = ExampleView::sparse({{}, {}});
  lr.example_step(x, real_t(1), real_t(1), w, w2, nullptr);
  EXPECT_EQ(w, w2);
}

TEST(Mlp, DenseUpdates) {
  Mlp mlp({10, 5, 2});
  EXPECT_FALSE(mlp.sparse_updates());
  EXPECT_EQ(mlp.dim(), 10u * 5 + 5 + 5 * 2 + 2);
  EXPECT_EQ(mlp.weight_offset(0), 0u);
  EXPECT_EQ(mlp.bias_offset(0), 50u);
}

TEST(Mlp, RejectsBadArchitectures) {
  EXPECT_THROW(Mlp({10}), CheckError);
  EXPECT_THROW(Mlp({10, 5, 3}), CheckError);  // output must be 2
}

TEST(Models, BatchStepEqualsMeanOfExampleSteps) {
  // One batch_step over [0, B) from frozen w must equal the average of
  // the individual example updates computed from the same w.
  const Dataset ds = tiny("w8a");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  const auto w = lr.init_params(8);
  const std::size_t B = 6;

  std::vector<real_t> w_batch(w);
  lr.batch_step(data, 0, B, false, real_t(1.0), w, w_batch);

  std::vector<double> mean_update(ds.d(), 0);
  for (std::size_t i = 0; i < B; ++i) {
    std::vector<real_t> wi(w);
    lr.example_step(data.example(i, false), ds.y[i], real_t(1.0), w, wi,
                    nullptr);
    for (std::size_t j = 0; j < ds.d(); ++j) {
      mean_update[j] += (wi[j] - w[j]) / static_cast<double>(B);
    }
  }
  for (std::size_t j = 0; j < ds.d(); ++j) {
    EXPECT_NEAR(w_batch[j] - w[j], mean_update[j], 1e-5);
  }
}

// ---- sync epoch (linalg path) vs per-example path ----

class SyncEpochMatches : public testing::TestWithParam<const char*> {};

TEST_P(SyncEpochMatches, LinalgEpochEqualsBatchStep) {
  const Dataset ds = tiny(GetParam());
  const TrainData data = train_of(ds);
  const bool dense = ds.profile.dense && ds.x_dense.has_value();
  LogisticRegression lr(ds.d());
  const auto w0 = lr.init_params(9);

  std::vector<real_t> w_sync(w0);
  linalg::CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);
  const double loss_sync = lr.sync_epoch(be, data, dense, real_t(0.1), w_sync);

  std::vector<real_t> w_ref(w0);
  lr.batch_step(data, 0, data.n(), dense, real_t(0.1), w0, w_ref);
  const double loss_ref = lr.dataset_loss(data, w0, dense);

  EXPECT_NEAR(loss_sync, loss_ref, 1e-3 * std::abs(loss_ref));
  for (std::size_t j = 0; j < ds.d(); ++j) {
    EXPECT_NEAR(w_sync[j], w_ref[j], 2e-4) << "coord " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, SyncEpochMatches,
                         testing::Values("covtype", "w8a", "real-sim"));

TEST(Mlp, SyncEpochMatchesBatchStep) {
  const Dataset base = tiny("covtype");
  const TrainData data = train_of(base);
  Mlp mlp({54, 10, 5, 2});
  const auto w0 = mlp.init_params(10);

  std::vector<real_t> w_sync(w0);
  linalg::CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);
  mlp.sync_epoch(be, data, true, real_t(0.2), w_sync);

  std::vector<real_t> w_ref(w0);
  mlp.batch_step(data, 0, data.n(), true, real_t(0.2), w0, w_ref);

  double max_err = 0;
  for (std::size_t j = 0; j < mlp.dim(); ++j) {
    max_err = std::max(max_err, std::abs(double(w_sync[j]) - w_ref[j]));
  }
  EXPECT_LT(max_err, 1e-3);
}

TEST(Mlp, SyncEpochSparseInputMatchesDense) {
  const Dataset base = tiny("covtype");
  const TrainData data = train_of(base);
  Mlp mlp({54, 10, 5, 2});
  const auto w0 = mlp.init_params(11);
  linalg::CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);
  std::vector<real_t> wd(w0), ws(w0);
  mlp.sync_epoch(be, data, true, real_t(0.1), wd);
  mlp.sync_epoch(be, data, false, real_t(0.1), ws);
  for (std::size_t j = 0; j < mlp.dim(); ++j) {
    EXPECT_NEAR(wd[j], ws[j], 5e-4);
  }
}

// ---- sparse sync epoch: bit-identical to the scatter form ----

/// The sparse full-batch epoch as it ran before the band products:
/// forward spmv and the fused loss kernel on `be`, then the scatter-form
/// A^T coef into a d-vector and a d-length axpy.
double scatter_form_epoch(const Model& model, linalg::CpuBackend& be,
                          const TrainData& data, real_t alpha,
                          std::span<real_t> w) {
  const std::size_t n = data.n();
  std::vector<real_t> z(n), coef(n);
  be.spmv(*data.sparse, w, z, /*transpose=*/false);
  const double loss = model.name() == "LR"
                          ? be.lr_loss_coefficients(z, data.y, coef)
                          : be.svm_loss_coefficients(z, data.y, coef);
  testing_ref::axpy(static_cast<real_t>(-alpha / static_cast<double>(n)),
                    testing_ref::scatter_spmv_t(*data.sparse, coef), w);
  return loss;
}

std::unique_ptr<ThreadPool> make_pool(std::size_t workers) {
  return workers == 0 ? std::make_unique<ThreadPool>(ThreadPool::NoWorkers{})
                      : std::make_unique<ThreadPool>(workers);
}

TEST(LinearModel, DenseExampleLossesAreExampleLoss) {
  // Dense rows take their margins examples in lanes; every loss, and so
  // dataset_loss on any pool, is example_loss's bit for bit. The pooled
  // loss runs first, so its workers race for the first build of the
  // matrix's example blocks (the TSan lane runs this case).
  Rng rng(44);
  for (const std::size_t rows : {1u, 15u, 17u, 1452u}) {
    DenseMatrix x(rows, 54);
    for (auto& v : x.data()) v = static_cast<real_t>(rng.normal());
    std::vector<real_t> y(rows);
    for (auto& v : y) v = rng.bernoulli(0.5) ? real_t(1) : real_t(-1);
    TrainData data;
    data.dense = &x;
    data.y = y;
    const LogisticRegression lr(54);
    const LinearSvm svm(54);
    for (const LinearModel* m : {static_cast<const LinearModel*>(&lr),
                                 static_cast<const LinearModel*>(&svm)}) {
      const std::vector<real_t> w = m->init_params(5);
      std::vector<double> ref(rows);
      double serial = 0;
      for (std::size_t i = 0; i < rows; ++i) {
        ref[i] = m->example_loss(ExampleView::dense(x.row(i)), y[i], w);
        serial += ref[i];
      }
      for (const std::size_t workers : {3u, 0u}) {
        const auto pool = workers == 0
                              ? std::make_unique<ThreadPool>(
                                    ThreadPool::NoWorkers{})
                              : std::make_unique<ThreadPool>(workers);
        EXPECT_EQ(m->dataset_loss(data, w, true, pool.get()), serial)
            << m->name() << ", " << rows << " rows, " << workers
            << " workers";
      }
      std::vector<double> out(rows);
      m->example_losses(data, 0, rows, true, w, out.data());
      EXPECT_TRUE(out == ref) << m->name() << ", " << rows << " rows";
    }
  }
}

TEST(SparseSyncEpoch, BitIdenticalToScatterFormOverManyEpochs) {
  // 100 / 200 / 600 rows give 1 / 3 / 8 reduction chunks. SVM reaches
  // margins >= 1 within a few epochs, so its zero-coefficient rows are
  // exercised; untouched weights (j % 3 == 0) start as -0 and NaN. The
  // carried epochs run the margin pass over w_J and the compact update.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  for (const std::size_t rows : {100u, 200u, 600u}) {
    Rng rng(40 + rows);
    const CsrMatrix x = testing_ref::sparse_with_gaps(rows, 150, 0.08, rng);
    std::vector<real_t> y(rows);
    for (auto& v : y) v = rng.bernoulli(0.5) ? real_t(1) : real_t(-1);
    TrainData data;
    data.sparse = &x;
    data.y = y;
    const LogisticRegression lr(x.cols());
    const LinearSvm svm(x.cols());
    for (const LinearModel* m : {static_cast<const LinearModel*>(&lr),
                                 static_cast<const LinearModel*>(&svm)}) {
      std::vector<real_t> w0 = m->init_params(3);
      for (std::size_t j = 0; j < w0.size(); j += 3) {
        w0[j] = j % 2 == 0 ? -real_t(0) : nan;
      }
      std::vector<real_t> w_ref = w0;
      linalg::CpuBackend ref_be;
      CostBreakdown ref_cost;
      ref_be.set_sink(&ref_cost);
      std::vector<double> ref_losses;
      for (int e = 0; e < 60; ++e) {
        ref_losses.push_back(
            scatter_form_epoch(*m, ref_be, data, real_t(2.0), w_ref));
      }
      for (const std::size_t workers : {0u, 1u, 3u}) {
        for (const bool carried : {false, true}) {
          const auto pool = make_pool(workers);
          linalg::CpuBackend be(
              linalg::CpuBackendOptions{.pool = pool.get()});
          CostBreakdown cost;
          be.set_sink(&cost);
          EpochCarry carry;
          std::vector<real_t> w = w0;
          const std::string what = m->name() + ", " + std::to_string(rows) +
                                   " rows, " + std::to_string(workers) +
                                   " workers" +
                                   (carried ? ", carried" : "");
          for (int e = 0; e < 60; ++e) {
            if (!carried) {
              ASSERT_EQ(m->sync_epoch(be, data, false, real_t(2.0), w),
                        ref_losses[static_cast<std::size_t>(e)])
                  << what << ", epoch " << e;
              continue;
            }
            // A carried epoch leaves the loss of the updated w in the
            // carry: dataset_loss's double-margin sum. w lags w_J over
            // J, so the loss is taken on a settled copy and the next
            // epoch still runs from the lagging w.
            m->sync_epoch(be, data, false, real_t(2.0), w, &carry,
                          pool.get());
            std::vector<real_t> now = w;
            EpochCarry view = carry;
            view.settle(now);
            ASSERT_EQ(carry.loss, m->dataset_loss(data, now, false))
                << what << ", epoch " << e;
          }
          carry.settle(w);
          EXPECT_EQ(testing_ref::bits(w), testing_ref::bits(w_ref)) << what;
          for (std::size_t j = 0; j < w.size(); j += 3) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(w[j]),
                      std::bit_cast<std::uint32_t>(w0[j]))
                << what;
          }
        }
      }
      if (m == &svm) {
        // The zero-coefficient branch really was taken.
        std::vector<real_t> z(rows), coef(rows);
        ref_be.spmv(x, w_ref, z, false);
        ref_be.svm_loss_coefficients(z, y, coef);
        EXPECT_NE(std::count(coef.begin(), coef.end(), real_t(0)), 0);
      }
    }
  }
}

TEST(DatasetLoss, PooledSumIsBitIdenticalToSerial) {
  for (const char* name : {"w8a", "covtype"}) {
    const Dataset ds = tiny(name);
    const TrainData data = train_of(ds);
    LogisticRegression lr(ds.d());
    const auto w = lr.init_params(13);
    for (const bool dense : {false, true}) {
      if (dense && !data.has_dense()) continue;
      const double serial = lr.dataset_loss(data, w, dense);
      for (const std::size_t workers : {0u, 1u, 3u}) {
        const auto pool = make_pool(workers);
        EXPECT_EQ(lr.dataset_loss(data, w, dense, pool.get()), serial)
            << name << ", dense " << dense << ", " << workers << " workers";
      }
    }
  }
}

// ---- blocked MLP driver vs the per-example forward/backprop ----

/// The one-example-at-a-time forward/backprop the blocked driver replaced,
/// kept as its bit-identity reference. Returns the loss; accumulates the
/// example's gradient into `grad` when it is non-null.
double reference_backprop(const Mlp& m, const ExampleView& x, real_t y,
                          std::span<const real_t> w,
                          std::vector<double>* grad) {
  const auto act = [&](double v) {
    switch (m.activation()) {
      case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-v));
      case Activation::kRelu: return v > 0 ? v : 0.0;
      case Activation::kTanh: return std::tanh(v);
    }
    return v;
  };
  const auto act_grad = [&](double a) {
    switch (m.activation()) {
      case Activation::kSigmoid: return a * (1.0 - a);
      case Activation::kRelu: return a > 0 ? 1.0 : 0.0;
      case Activation::kTanh: return 1.0 - a * a;
    }
    return 1.0;
  };
  const std::vector<std::size_t>& sz = m.layers();
  const std::size_t L = m.num_layers();
  std::vector<std::vector<double>> acts(L + 1);
  for (std::size_t k = 0; k < L; ++k) {
    const std::size_t out = sz[k + 1];
    const real_t* W = w.data() + m.weight_offset(k);
    const real_t* b = w.data() + m.bias_offset(k);
    std::vector<double>& z = acts[k + 1];
    z.assign(out, 0.0);
    if (k == 0) {
      x.for_each([&](index_t i, real_t v) {
        const real_t* row = W + static_cast<std::size_t>(i) * out;
        for (std::size_t j = 0; j < out; ++j) {
          z[j] += static_cast<double>(v) * row[j];
        }
      });
    } else {
      for (std::size_t i = 0; i < sz[k]; ++i) {
        const real_t* row = W + i * out;
        for (std::size_t j = 0; j < out; ++j) z[j] += acts[k][i] * row[j];
      }
    }
    for (std::size_t j = 0; j < out; ++j) {
      z[j] += b[j];
      if (k + 1 < L) z[j] = act(z[j]);
    }
  }
  const double a = acts[L][0], b2 = acts[L][1];
  const double mx = std::max(a, b2);
  const double ea = std::exp(a - mx), eb = std::exp(b2 - mx);
  const double p1 = eb / (ea + eb);
  const int cls = y > 0 ? 1 : 0;
  const double loss = -std::log(std::max(1e-12, cls == 1 ? p1 : 1.0 - p1));
  if (grad == nullptr) return loss;
  std::vector<double> delta = {(1.0 - p1) - (cls == 0), p1 - (cls == 1)};
  for (std::size_t k = L; k-- > 0;) {
    const std::size_t out = sz[k + 1];
    const real_t* W = w.data() + m.weight_offset(k);
    double* gW = grad->data() + m.weight_offset(k);
    double* gb = grad->data() + m.bias_offset(k);
    for (std::size_t j = 0; j < out; ++j) gb[j] += delta[j];
    if (k == 0) {
      x.for_each([&](index_t i, real_t v) {
        double* row = gW + static_cast<std::size_t>(i) * out;
        for (std::size_t j = 0; j < out; ++j) {
          row[j] += static_cast<double>(v) * delta[j];
        }
      });
      break;
    }
    std::vector<double> next(sz[k], 0.0);
    for (std::size_t i = 0; i < sz[k]; ++i) {
      const real_t* row = W + i * out;
      double* grow = gW + i * out;
      double up = 0;
      for (std::size_t j = 0; j < out; ++j) {
        grow[j] += acts[k][i] * delta[j];
        up += static_cast<double>(row[j]) * delta[j];
      }
      next[i] = up * act_grad(acts[k][i]);
    }
    delta = std::move(next);
  }
  return loss;
}

/// A random MLP training set: dense rows with about a third zeros, the
/// same rows as CSR, labels in {-1, +1}.
struct MlpData {
  DenseMatrix dense;
  CsrMatrix sparse;
  std::vector<real_t> y;

  MlpData(std::size_t n, std::size_t d, std::uint64_t seed)
      : dense(n, d) {
    Rng rng(seed);
    CsrMatrix::Builder builder(d);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = 0; p < d; ++p) {
        if (rng.uniform(0.0, 1.0) < 0.35) continue;
        dense.at(i, p) = static_cast<real_t>(rng.uniform(-1.5, 1.5));
      }
      builder.add_dense_row(dense.row(i));
      y.push_back(rng.uniform(0.0, 1.0) < 0.5 ? real_t(-1) : real_t(1));
    }
    sparse = std::move(builder).build();
  }
  TrainData train(bool with_dense) const {
    TrainData t;
    t.sparse = &sparse;
    t.dense = with_dense ? &dense : nullptr;
    t.y = y;
    return t;
  }
};

/// Every weight and bias drawn at random (init_params zeroes the biases,
/// which would hide a bias-order slip).
std::vector<real_t> random_weights(const Mlp& m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> w(m.dim());
  for (real_t& v : w) v = static_cast<real_t>(rng.normal(0.0, 0.6));
  return w;
}

/// The rows a case runs on: `data` itself, or with `fresh` a copy of its
/// dense matrix, which starts without example blocks, so the call under
/// test builds them. Pins its own address: do not copy.
struct CaseRows {
  DenseMatrix copy;
  TrainData data;
  CaseRows(const TrainData& d, bool fresh) : data(d) {
    if (fresh && d.dense != nullptr) {
      copy = *d.dense;
      data.dense = &copy;
    }
  }
  CaseRows(const CaseRows&) = delete;
};

TEST(Mlp, BlockedDriverBitIdenticalToPerExample) {
  // Dense blocks that start on a lane boundary read the matrix's cached
  // example blocks; a range that starts off one first runs a short staged
  // block. Batches and loss ranges start on and off boundaries and cross
  // two of them, and end mid-block and at the last row (rows is not a
  // multiple of the lanes for lanes 8 and 16). Each dense case runs once
  // with the example blocks already built and once on a fresh matrix.
  const std::size_t lanes = kernel::active_kernels().lanes;
  const std::vector<std::size_t> starts = {0, 3, lanes, lanes + 5};
  const std::size_t max_len = std::max<std::size_t>(2 * lanes + 3, 21);
  const std::size_t rows = starts.back() + max_len;
  const std::vector<std::vector<std::size_t>> shapes = {
      {54, 10, 5, 2}, {300, 10, 5, 2}, {13, 17, 3, 2}, {7, 2}};
  for (const auto& shape : shapes) {
    const MlpData ds(rows, shape[0], 101 + shape[0]);
    (void)ds.dense.example_blocks(lanes);
    for (const Activation a :
         {Activation::kSigmoid, Activation::kRelu, Activation::kTanh}) {
      const Mlp mlp(shape, a);
      const std::vector<real_t> w0 = random_weights(mlp, 7 + shape[1]);
      for (const bool dense : {true, false}) {
        const TrainData data = ds.train(dense);
        const std::string where = std::to_string(shape[0]) + "-" +
                                  std::to_string(shape[1]) + " " +
                                  to_string(a) + (dense ? " dense" : " sparse");
        std::vector<double> ref_loss(rows);
        double want_loss = 0;
        for (std::size_t i = 0; i < rows; ++i) {
          ref_loss[i] = reference_backprop(mlp, data.example(i, dense),
                                           data.y[i], w0, nullptr);
          want_loss += ref_loss[i];
        }
        for (const bool fresh : {false, true}) {
          if (fresh && !dense) continue;
          const std::string how = where + (fresh ? " fresh" : " built");
          for (const std::size_t begin : starts) {
            // The gradient of [begin, begin + len), grown one example at
            // a time in index order.
            std::vector<double> grad(mlp.dim(), 0.0);
            for (std::size_t len = 1; len <= max_len; ++len) {
              const std::size_t i = begin + len - 1;
              reference_backprop(mlp, data.example(i, dense), data.y[i], w0,
                                 &grad);
              const real_t alpha = real_t(0.3);
              const double scale = alpha / static_cast<double>(len);
              std::vector<real_t> want = w0;
              for (std::size_t j = 0; j < mlp.dim(); ++j) {
                if (grad[j] != 0.0) {
                  want[j] -= static_cast<real_t>(scale * grad[j]);
                }
              }
              const CaseRows c(data, fresh);
              std::vector<real_t> got = w0;
              mlp.batch_step(c.data, begin, begin + len, dense, alpha, w0,
                             got);
              ASSERT_EQ(got, want)
                  << how << ", batch [" << begin << ", " << begin + len
                  << ")";
            }
            for (const std::size_t end : {begin + max_len / 2, rows}) {
              const CaseRows c(data, fresh);
              std::vector<double> out(end - begin);
              mlp.example_losses(c.data, begin, end, dense, w0, out.data());
              EXPECT_TRUE(std::equal(out.begin(), out.end(),
                                     ref_loss.begin() + begin))
                  << how << ", losses [" << begin << ", " << end << ")";
            }
          }
          // Pool chunks start mid-block; on a fresh matrix the workers
          // race for the first build (the TSan lane runs this case).
          for (const std::size_t workers : {0u, 1u, 3u}) {
            const CaseRows c(data, fresh);
            const auto pool = make_pool(workers);
            EXPECT_EQ(mlp.dataset_loss(c.data, w0, dense, pool.get()),
                      want_loss)
                << how << ", " << workers << " workers";
          }
          const CaseRows c(data, fresh);
          EXPECT_EQ(mlp.dataset_loss(c.data, w0, dense), want_loss) << how;
        }

        // Blocks of one: example_loss and example_step.
        const ExampleView x = data.example(3, dense);
        EXPECT_EQ(mlp.example_loss(x, data.y[3], w0), ref_loss[3]) << where;
        std::vector<double> grad(mlp.dim(), 0.0);
        reference_backprop(mlp, x, data.y[3], w0, &grad);
        std::vector<real_t> want = w0;
        for (std::size_t j = 0; j < mlp.dim(); ++j) {
          if (grad[j] != 0.0) {
            want[j] -= static_cast<real_t>(real_t(0.3) * grad[j]);
          }
        }
        std::vector<real_t> got = w0;
        mlp.example_step(x, data.y[3], real_t(0.3), w0, got, nullptr);
        EXPECT_EQ(got, want) << where;
      }
    }
  }
}

TEST(Mlp, RejectsInputWidthMismatch) {
  // 8 columns wider than the input layer: the per-example gradient loop
  // of the input layer would have written past the gradient buffer.
  const Mlp mlp({6, 4, 2});
  const MlpData wide(5, 14, 3);
  const std::vector<real_t> w = mlp.init_params(1);
  std::vector<real_t> w2 = w;
  for (const bool dense : {true, false}) {
    const TrainData data = wide.train(dense);
    EXPECT_THROW(mlp.batch_step(data, 0, 5, dense, real_t(0.1), w, w2),
                 CheckError);
    EXPECT_THROW(mlp.dataset_loss(data, w, dense), CheckError);
    const auto pool = make_pool(2);
    EXPECT_THROW(mlp.dataset_loss(data, w, dense, pool.get()), CheckError);
  }
  const ExampleView x = ExampleView::dense(wide.dense.row(0));
  EXPECT_THROW(mlp.example_loss(x, real_t(1), w), CheckError);
  EXPECT_THROW(mlp.example_step(x, real_t(1), real_t(0.1), w, w2, nullptr),
               CheckError);
  const index_t past[] = {2, 9};
  const real_t val[] = {1, 1};
  const ExampleView xs = ExampleView::sparse({past, val});
  EXPECT_THROW(mlp.example_loss(xs, real_t(1), w), CheckError);
  EXPECT_EQ(w2, w);
}

// ---- training sanity: loss decreases over epochs ----

TEST(Models, GradientDescentConvergesOnAllTasks) {
  const Dataset ds = tiny("w8a");
  const TrainData data = train_of(ds);
  linalg::CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);

  LogisticRegression lr(ds.d());
  LinearSvm svm(ds.d());
  for (Model* m : std::initializer_list<Model*>{&lr, &svm}) {
    auto w = m->init_params(12);
    const double initial = m->dataset_loss(data, w, false);
    for (int e = 0; e < 30; ++e) {
      m->sync_epoch(be, data, false, real_t(10.0), w);
    }
    EXPECT_LT(m->dataset_loss(data, w, false), 0.9 * initial)
        << m->name();
  }
}

TEST(Models, StepFlopsScalesWithTouched) {
  LogisticRegression lr(1000);
  EXPECT_GT(lr.step_flops(100), lr.step_flops(10));
  Mlp mlp({300, 10, 5, 2});
  EXPECT_GT(mlp.step_flops(300), mlp.step_flops(12));
  // MLP per-example work is far larger than linear-model work.
  EXPECT_GT(mlp.step_flops(50), lr.step_flops(50) * 10);
}

TEST(Models, InitParamsDeterministic) {
  LogisticRegression lr(64);
  EXPECT_EQ(lr.init_params(1), lr.init_params(1));
  EXPECT_NE(lr.init_params(1), lr.init_params(2));
  Mlp mlp({8, 4, 2});
  EXPECT_EQ(mlp.init_params(3), mlp.init_params(3));
}

}  // namespace
}  // namespace parsgd
