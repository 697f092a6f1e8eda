#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "data/generator.hpp"
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

/// The sparse full-batch epoch as it ran before the column-major fold:
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

TEST(SparseSyncEpoch, BitIdenticalToScatterFormOverManyEpochs) {
  // 100 / 200 / 600 rows give 1 / 3 / 8 reduction chunks. SVM reaches
  // margins >= 1 within a few epochs, so its zero-coefficient rows are
  // exercised; untouched weights (j % 3 == 0) start as -0 and NaN.
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
    for (const Model* m : {static_cast<const Model*>(&lr),
                           static_cast<const Model*>(&svm)}) {
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
        const auto pool = make_pool(workers);
        linalg::CpuBackend be(linalg::CpuBackendOptions{.pool = pool.get()});
        CostBreakdown cost;
        be.set_sink(&cost);
        std::vector<real_t> w = w0;
        for (int e = 0; e < 60; ++e) {
          ASSERT_EQ(m->sync_epoch(be, data, false, real_t(2.0), w),
                    ref_losses[static_cast<std::size_t>(e)])
              << m->name() << ", " << rows << " rows, " << workers
              << " workers, epoch " << e;
        }
        EXPECT_EQ(testing_ref::bits(w), testing_ref::bits(w_ref))
            << m->name() << ", " << rows << " rows, " << workers
            << " workers";
        for (std::size_t j = 0; j < w.size(); j += 3) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(w[j]),
                    std::bit_cast<std::uint32_t>(w0[j]));
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
