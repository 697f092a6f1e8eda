#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asyncsim/gpu_hogwild.hpp"
#include "data/generator.hpp"
#include "data/mlp_view.hpp"
#include "engine_decorators.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/async_engine.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"
#include "sgd/stepsize.hpp"
#include "sgd/sync_engine.hpp"
#include "spmv_t_reference.hpp"
#include "telemetry/session.hpp"

namespace parsgd {
namespace {

struct Fixture {
  Dataset ds;
  TrainData data;
  LogisticRegression lr;
  ScaleContext scale;
  std::vector<real_t> w0;

  explicit Fixture(const char* name, double gen_scale = 500.0)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 5, .scale = gen_scale})),
        lr(ds.d()) {
    data.sparse = &ds.x;
    data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
    data.y = ds.y;
    scale = make_scale_context(ds, lr, ds.profile.dense);
    w0 = lr.init_params(5);
  }
};

TEST(SyncEngine, GpuFasterThanCpuParFasterThanCpuSeq) {
  Fixture f("covtype");
  auto secs = [&](Arch arch) {
    SyncEngineOptions opts;
    opts.arch = arch;
    opts.use_dense = true;
    SyncEngine e(f.lr, f.data, f.scale, opts);
    return e.epoch_seconds(f.w0);
  };
  const double gpu = secs(Arch::kGpu);
  const double par = secs(Arch::kCpuPar);
  const double seq = secs(Arch::kCpuSeq);
  EXPECT_LT(gpu, par);   // headline: GPU always wins sync
  EXPECT_LT(par, seq);   // parallel CPU beats sequential
  EXPECT_GT(seq / par, 10.0);  // large parallel speedup
}

TEST(SyncEngine, TrajectoryIsArchIndependent) {
  Fixture f("w8a");
  auto losses = [&](Arch arch) {
    SyncEngineOptions opts;
    opts.arch = arch;
    SyncEngine e(f.lr, f.data, f.scale, opts);
    TrainOptions t;
    t.max_epochs = 5;
    return run_training(e, f.lr, f.data, f.w0, real_t(1.0), t).losses;
  };
  EXPECT_EQ(losses(Arch::kCpuSeq), losses(Arch::kGpu));
}

TEST(SyncEngine, ReducesLoss) {
  Fixture f("real-sim");
  SyncEngineOptions opts;
  SyncEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 20;
  const RunResult r = run_training(e, f.lr, f.data, f.w0, real_t(10.0), t);
  EXPECT_FALSE(r.diverged);
  EXPECT_LT(r.best_loss(), r.initial_loss * 0.95);
  EXPECT_GT(r.seconds_per_epoch(), 0.0);
}

TEST(SyncEngine, DivergenceDetected) {
  Fixture f("covtype");
  SyncEngineOptions opts;
  opts.use_dense = true;
  SyncEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 50;
  const RunResult r =
      run_training(e, f.lr, f.data, f.w0, real_t(1e6), t);
  EXPECT_TRUE(r.diverged);
  EXPECT_LT(r.epochs(), 50u);
}

/// Forwards every call to a LinearModel, the plain sync_epoch included,
/// without being one: SyncEngine never stages an EpochCarry for it, so
/// run_training takes every loss from dataset_loss and every epoch runs
/// its own forward pass. The reference of the carry tests.
class Carryless : public Model {
 public:
  explicit Carryless(std::unique_ptr<LinearModel> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::size_t dim() const override { return inner_->dim(); }
  std::vector<real_t> init_params(std::uint64_t seed) const override {
    return inner_->init_params(seed);
  }
  double example_loss(const ExampleView& x, real_t y,
                      std::span<const real_t> w) const override {
    return inner_->example_loss(x, y, w);
  }
  void example_step(const ExampleView& x, real_t y, real_t alpha,
                    std::span<const real_t> w_read, std::span<real_t> w_write,
                    std::vector<index_t>* touched) const override {
    inner_->example_step(x, y, alpha, w_read, w_write, touched);
  }
  bool sparse_updates() const override { return true; }
  void batch_step(const TrainData& data, std::size_t begin, std::size_t end,
                  bool prefer_dense, real_t alpha,
                  std::span<const real_t> w_read,
                  std::span<real_t> w_write) const override {
    inner_->batch_step(data, begin, end, prefer_dense, alpha, w_read,
                       w_write);
  }
  double sync_epoch(linalg::Backend& backend, const TrainData& data,
                    bool use_dense, real_t alpha,
                    std::span<real_t> w) const override {
    return inner_->sync_epoch(backend, data, use_dense, alpha, w);
  }
  double step_flops(std::size_t touched) const override {
    return inner_->step_flops(touched);
  }

 private:
  std::unique_ptr<LinearModel> inner_;
};

/// LR whose sparse sync epoch is the two-call form the fused
/// spmv_t_axpy replaced: A^T coef into a d-vector, then a d-length axpy.
class TwoCallLr final : public Carryless {
 public:
  explicit TwoCallLr(std::size_t d)
      : Carryless(std::make_unique<LogisticRegression>(d)) {}
  double sync_epoch(linalg::Backend& backend, const TrainData& data,
                    bool use_dense, real_t alpha,
                    std::span<real_t> w) const override {
    PARSGD_CHECK(!use_dense);
    std::vector<real_t> z(data.n()), coef(data.n()), grad(dim());
    backend.spmv(*data.sparse, w, z, /*transpose=*/false);
    const double loss = backend.lr_loss_coefficients(z, data.y, coef);
    backend.spmv(*data.sparse, coef, grad, /*transpose=*/true);
    backend.axpy(static_cast<real_t>(-alpha / static_cast<double>(data.n())),
                 grad, w);
    return loss;
  }
};

TEST(SyncEngine, FusedSparseUpdateKeepsModeledCost) {
  // Modeled seconds and the paper-scale ledger of a sparse epoch are the
  // two-call form's exactly, on every architecture.
  Fixture f("rcv1");
  const TwoCallLr two_call(f.ds.d());
  for (const Arch arch : {Arch::kCpuSeq, Arch::kCpuPar, Arch::kGpu}) {
    SyncEngineOptions opts;
    opts.arch = arch;
    SyncEngine fused(f.lr, f.data, f.scale, opts);
    SyncEngine reference(two_call, f.data, f.scale, opts);
    EXPECT_EQ(fused.epoch_seconds(f.w0), reference.epoch_seconds(f.w0))
        << to_string(arch);
    const CostBreakdown& a = fused.last_cost();
    const CostBreakdown& b = reference.last_cost();
    EXPECT_EQ(a.flops, b.flops) << to_string(arch);
    EXPECT_EQ(a.bytes_streamed, b.bytes_streamed) << to_string(arch);
    EXPECT_EQ(a.bytes_random, b.bytes_random) << to_string(arch);
    EXPECT_EQ(a.kernel_launches, b.kernel_launches) << to_string(arch);
    EXPECT_EQ(a.gpu_cycles, b.gpu_cycles) << to_string(arch);
    EXPECT_EQ(a.write_conflicts, b.write_conflicts) << to_string(arch);
  }
}

/// What a run_training call leaves behind, compared bit for bit (NaN
/// losses and weights included): its losses, its watchdog rollbacks, and
/// the weights its last epoch produced.
struct Trajectory {
  std::uint64_t initial_loss;
  std::vector<std::uint64_t> losses;
  std::size_t recoveries;
  std::vector<std::uint32_t> w;
  bool operator==(const Trajectory&) const = default;
};

Trajectory train(std::unique_ptr<Engine> engine, const Model& model,
                 const TrainData& data, std::span<const real_t> w0,
                 real_t alpha, const TrainOptions& t) {
  CaptureWeights capture(std::move(engine));
  const RunResult r = run_training(capture, model, data, w0, alpha, t);
  Trajectory out{std::bit_cast<std::uint64_t>(r.initial_loss), {},
                 r.recoveries.size(), {}};
  for (const double l : r.losses) {
    out.losses.push_back(std::bit_cast<std::uint64_t>(l));
  }
  for (const real_t v : capture.w()) {
    out.w.push_back(std::bit_cast<std::uint32_t>(v));
  }
  return out;
}

/// Decorates an engine before a run; the identity when empty.
using EngineWrap =
    std::function<std::unique_ptr<Engine>(std::unique_ptr<Engine>)>;

/// Trains `model` (which stages a carry) and its Carryless twin on two
/// identically configured sync engines, each decorated by `wrap`, and
/// expects the same trajectory from both.
void expect_carry_transparent(const LinearModel& model,
                              const Carryless& reference,
                              const TrainData& data, const Fixture& f,
                              const SyncEngineOptions& opts, real_t alpha,
                              const TrainOptions& t, const std::string& what,
                              const EngineWrap& wrap = {}) {
  const auto engine = [&](const Model& m) {
    std::unique_ptr<Engine> e =
        std::make_unique<SyncEngine>(m, data, f.scale, opts);
    return wrap ? wrap(std::move(e)) : std::move(e);
  };
  const Trajectory a = train(engine(model), model, data, f.w0, alpha, t);
  const Trajectory b =
      train(engine(reference), reference, data, f.w0, alpha, t);
  EXPECT_EQ(a.initial_loss, b.initial_loss) << what;
  EXPECT_EQ(a.losses, b.losses) << what;
  EXPECT_EQ(a.recoveries, b.recoveries) << what;
  EXPECT_FALSE(a.w.empty()) << what;
  EXPECT_TRUE(a.w == b.w) << what;
}

TEST(EpochCarry, HoldsTheNextForwardPassAndLoss) {
  // After a carried epoch the carry is the updated model's loss (as
  // dataset_loss computes it) and the coefficients its forward pass
  // yields, bit for bit at det=on.
  Fixture f("rcv1");
  SyncEngine e(f.lr, f.data, f.scale, SyncEngineOptions{});
  std::vector<real_t> w = f.w0;
  Rng rng(1);
  EpochCarry carry;
  e.run_epoch_carried(w, real_t(5.0), rng, carry);
  ASSERT_TRUE(carry.matches(f.data, false));
  ASSERT_TRUE(f.data.has_dense());
  // The sparse update stayed in w_J; settling keeps the margins.
  ASSERT_EQ(carry.w_lags, f.data.sparse);
  carry.settle(w);
  ASSERT_TRUE(carry.matches(f.data, false));
  EXPECT_FALSE(carry.matches(f.data, true));
  EXPECT_EQ(carry.loss, f.lr.dataset_loss(f.data, w, false));
  linalg::CpuBackend be;
  CostBreakdown sink;
  be.set_sink(&sink);
  std::vector<real_t> z(f.data.n()), coef(f.data.n());
  be.spmv(*f.data.sparse, w, z, /*transpose=*/false);
  be.lr_loss_coefficients(z, f.data.y, coef);
  EXPECT_TRUE(carry.coef == coef);
  // A mini-batch engine clears it.
  SyncEngineOptions batched;
  batched.minibatch = 64;
  SyncEngine mb(f.lr, f.data, f.scale, batched);
  mb.run_epoch_carried(w, real_t(5.0), rng, carry);
  EXPECT_FALSE(carry.matches(f.data, false));
}

TEST(EpochCarry, RunTrainingMatchesUncarriedReference) {
  // LR and SVM, sparse (rcv1) and dense (covtype), on pools of 0, 1 and
  // 3 workers, all at det=on: the carried loss and coefficients change
  // nothing the run reports.
  ThreadPool none(ThreadPool::NoWorkers{}), one(1), three(3);
  for (const char* name : {"rcv1", "covtype"}) {
    Fixture f(name);
    const bool dense = std::string(name) == "covtype";
    const LinearSvm svm(f.ds.d());
    const Carryless lr_ref(std::make_unique<LogisticRegression>(f.ds.d()));
    const Carryless svm_ref(std::make_unique<LinearSvm>(f.ds.d()));
    for (ThreadPool* pool : {&none, &one, &three}) {
      SyncEngineOptions opts;
      opts.arch = Arch::kCpuPar;
      opts.use_dense = dense;
      opts.pool = pool;
      TrainOptions t;
      t.max_epochs = 6;
      t.prefer_dense = dense;
      const std::string what = std::string(name) + " pool " +
                               std::to_string(pool->size());
      expect_carry_transparent(f.lr, lr_ref, f.data, f, opts, real_t(2.0),
                               t, "LR " + what);
      expect_carry_transparent(svm, svm_ref, f.data, f, opts, real_t(0.5),
                               t, "SVM " + what);
    }
  }
}

TEST(EpochCarry, WatchdogRollbackClearsTheCarry) {
  // A step size that diverges: every rollback rewinds w, and the epoch
  // after it must run its own forward pass, not the rejected epoch's.
  Fixture f("covtype");
  const Carryless ref(std::make_unique<LogisticRegression>(f.ds.d()));
  SyncEngineOptions opts;
  opts.use_dense = true;
  TrainOptions t;
  t.max_epochs = 8;
  t.prefer_dense = true;
  t.watchdog = true;
  SyncEngine probe(f.lr, f.data, f.scale, opts);
  const RunResult r = run_training(probe, f.lr, f.data, f.w0, real_t(1e4), t);
  ASSERT_FALSE(r.recoveries.empty());
  expect_carry_transparent(f.lr, ref, f.data, f, opts, real_t(1e4), t,
                           "watchdog");
}

TEST(EpochCarry, LossLayoutMismatchFallsBackToDatasetLoss) {
  // A dense copy that disagrees with the sparse rows (every value
  // doubled) tells the two layouts apart: the loss must come from the
  // layout run_training asks for, not from the engine's margin pass.
  Fixture f("covtype");
  ASSERT_TRUE(f.data.has_dense());
  DenseMatrix doubled = *f.data.dense;
  for (real_t& v : doubled.data()) v *= 2;
  TrainData data = f.data;
  data.dense = &doubled;
  ASSERT_NE(f.lr.dataset_loss(data, f.w0, true),
            f.lr.dataset_loss(data, f.w0, false));
  const Carryless ref(std::make_unique<LogisticRegression>(f.ds.d()));
  for (const bool engine_dense : {true, false}) {
    SyncEngineOptions opts;
    opts.use_dense = engine_dense;
    TrainOptions t;
    t.max_epochs = 5;
    t.prefer_dense = !engine_dense;
    expect_carry_transparent(f.lr, ref, data, f, opts, real_t(0.5), t,
                             engine_dense ? "dense engine, sparse loss"
                                          : "sparse engine, dense loss");
  }
}

/// What CheckCompactView saw over a run.
struct ViewChecks {
  std::size_t epochs = 0;  ///< carried epochs that left a sparse carry
  /// Of them, those that wrote w over J or left w not lagging w_J.
  std::size_t mismatches = 0;
};

/// After every carried epoch that leaves a carry read from the sparse
/// rows `x`, checks that the epoch's update stayed in w_J: w over J is
/// bit for bit what it was before the epoch, and the carry says w lags.
class CheckCompactView final : public ForwardingEngine {
 public:
  CheckCompactView(std::unique_ptr<Engine> inner, const CsrMatrix& x,
                   ViewChecks& checks)
      : ForwardingEngine(std::move(inner)), x_(x), checks_(checks) {}

  double run_epoch_carried(std::span<real_t> w, real_t alpha, Rng& rng,
                           EpochCarry& carry) override {
    const std::span<const index_t> cols = x_.column_bands().cols;
    const auto over_j = [&] {
      std::vector<real_t> v;
      for (const index_t j : cols) v.push_back(w[j]);
      return testing_ref::bits(v);
    };
    const auto before = over_j();
    const double secs =
        ForwardingEngine::run_epoch_carried(w, alpha, rng, carry);
    if (carry.sparse == &x_) {
      ++checks_.epochs;
      if (carry.w_lags != &x_ || over_j() != before) ++checks_.mismatches;
    }
    return secs;
  }

 private:
  const CsrMatrix& x_;
  ViewChecks& checks_;
};

TEST(EpochCarry, UpdatesStayInTheCompactViewUntilSettled) {
  // Sparse LR and SVM on pools of 0 and 3 workers: no carried epoch
  // writes w over J, and the settled weights still match the reference.
  ThreadPool none(ThreadPool::NoWorkers{}), three(3);
  Fixture f("rcv1");
  const LinearSvm svm(f.ds.d());
  const Carryless lr_ref(std::make_unique<LogisticRegression>(f.ds.d()));
  const Carryless svm_ref(std::make_unique<LinearSvm>(f.ds.d()));
  for (ThreadPool* pool : {&none, &three}) {
    SyncEngineOptions opts;
    opts.pool = pool;
    TrainOptions t;
    t.max_epochs = 6;
    for (const bool is_lr : {true, false}) {
      ViewChecks checks;
      const std::string what = std::string(is_lr ? "LR" : "SVM") +
                               " pool " + std::to_string(pool->size());
      const EngineWrap check = [&](std::unique_ptr<Engine> e) {
        return std::make_unique<CheckCompactView>(std::move(e),
                                                  *f.data.sparse, checks);
      };
      if (is_lr) {
        expect_carry_transparent(f.lr, lr_ref, f.data, f, opts,
                                 real_t(2.0), t, what, check);
      } else {
        expect_carry_transparent(svm, svm_ref, f.data, f, opts,
                                 real_t(0.5), t, what, check);
      }
      EXPECT_EQ(checks.epochs, 6u) << what;
      EXPECT_EQ(checks.mismatches, 0u) << what;
    }
  }
}

TEST(EpochCarry, RollbackAndPoisonGatherTheCompactViewAgain) {
  // Both write w outside the engine and clear the carry: the next epoch
  // must gather w_J from the rewritten w, not keep the old view. A kept
  // view would update w over J from the rejected weights, which the
  // trajectory comparison sees.
  Fixture f("rcv1");
  const Carryless ref(std::make_unique<LogisticRegression>(f.ds.d()));
  const SyncEngineOptions opts;
  TrainOptions t;
  t.max_epochs = 8;
  t.watchdog = true;
  SyncEngine probe(f.lr, f.data, f.scale, opts);
  ASSERT_FALSE(
      run_training(probe, f.lr, f.data, f.w0, real_t(1e4), t).recoveries
          .empty());
  for (const bool poison : {false, true}) {
    ViewChecks checks;
    const EngineWrap wrap = [&](std::unique_ptr<Engine> e) {
      if (poison) {
        e = std::make_unique<PoisonAfterEpoch>(
            std::move(e), 2, std::numeric_limits<real_t>::quiet_NaN());
      }
      return std::make_unique<CheckCompactView>(std::move(e),
                                                *f.data.sparse, checks);
    };
    expect_carry_transparent(f.lr, ref, f.data, f, opts,
                             poison ? real_t(2.0) : real_t(1e4), t,
                             poison ? "poison" : "rollback", wrap);
    EXPECT_GT(checks.epochs, 0u);
    EXPECT_EQ(checks.mismatches, 0u);
  }
}

TEST(AsyncCpuEngine, SeqMatchesPlainSgdTrajectory) {
  Fixture f("w8a");
  AsyncCpuOptions opts;
  opts.arch = Arch::kCpuSeq;
  AsyncCpuEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 10;
  const RunResult r = run_training(e, f.lr, f.data, f.w0, real_t(0.1), t);
  EXPECT_FALSE(r.diverged);
  EXPECT_LT(r.losses.back(), r.initial_loss);
}

TEST(AsyncCpuEngine, ParallelSparseFasterPerEpochThanSeq) {
  // news: sparse data, million-feature model — the Hogwild sweet spot.
  Fixture f("news", 200.0);
  auto avg_secs = [&](Arch arch) {
    AsyncCpuOptions opts;
    opts.arch = arch;
    AsyncCpuEngine e(f.lr, f.data, f.scale, opts);
    TrainOptions t;
    t.max_epochs = 2;
    return run_training(e, f.lr, f.data, f.w0, real_t(0.1), t)
        .seconds_per_epoch();
  };
  const double seq = avg_secs(Arch::kCpuSeq);
  const double par = avg_secs(Arch::kCpuPar);
  EXPECT_LT(par, seq);
  EXPECT_GT(seq / par, 2.0);   // clearly parallel...
  EXPECT_LT(seq / par, 40.0);  // ...but nowhere near 56x
}

TEST(AsyncCpuEngine, DenseConflictsHurtParallelEpochTime) {
  // covtype: 4-line model; Table III shows cpu-par *slower* per epoch.
  Fixture f("covtype");
  auto avg_secs = [&](Arch arch) {
    AsyncCpuOptions opts;
    opts.arch = arch;
    opts.prefer_dense = true;
    AsyncCpuEngine e(f.lr, f.data, f.scale, opts);
    TrainOptions t;
    t.max_epochs = 2;
    t.prefer_dense = true;
    return run_training(e, f.lr, f.data, f.w0, real_t(0.01), t)
        .seconds_per_epoch();
  };
  EXPECT_GT(avg_secs(Arch::kCpuPar), avg_secs(Arch::kCpuSeq));
}

TEST(AsyncGpuEngine, RunsAndCharges) {
  Fixture f("w8a");
  AsyncGpuOptions opts;
  AsyncGpuEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 3;
  const RunResult r = run_training(e, f.lr, f.data, f.w0, real_t(0.1), t);
  EXPECT_FALSE(r.diverged);
  EXPECT_GT(r.seconds_per_epoch(), 0.0);
  EXPECT_EQ(e.arch(), Arch::kGpu);
  EXPECT_EQ(e.update(), Update::kAsync);
}

TEST(AsyncGpuEngine, MlpUsesHogbatch) {
  const Dataset base =
      generate_dataset("covtype", GeneratorOptions{.seed = 5, .scale = 500});
  const Dataset mlp_ds = make_mlp_dataset(base);
  TrainData data;
  data.sparse = &mlp_ds.x;
  data.dense = &*mlp_ds.x_dense;
  data.y = mlp_ds.y;
  Mlp mlp(base.profile.mlp_architecture());
  const ScaleContext scale = make_scale_context(mlp_ds, mlp, true);
  AsyncGpuOptions opts;
  opts.batch = 64;
  opts.prefer_dense = true;
  AsyncGpuEngine e(mlp, data, scale, opts);
  EXPECT_EQ(e.name(), "async/gpu/hogbatch");
  TrainOptions t;
  t.max_epochs = 2;
  t.prefer_dense = true;
  const auto w0 = mlp.init_params(5);
  const RunResult r = run_training(e, mlp, data, w0, real_t(0.5), t);
  EXPECT_LT(r.losses.back(), r.initial_loss);
}

TEST(AsyncGpuEngine, MlpHogbatchTrajectoryIsOneWorkerCpuHogbatch) {
  // GpuHogbatch runs its kernels one at a time, and one-worker AsyncSim
  // runs in place: both draw one shuffle of the batches per epoch and
  // take the same batch_step on each, so their loss series are the same
  // bits (the Study's async MLP gpu and cpu-seq cells search one
  // trajectory twice). The cpu-seq spec carries the Study's delay, which
  // a single worker ignores.
  const Dataset mlp_ds = make_mlp_dataset(
      generate_dataset("w8a", GeneratorOptions{.seed = 5, .scale = 100}));
  const Mlp mlp(mlp_ds.profile.mlp_architecture());
  const EngineContext ctx = make_engine_context(mlp_ds, mlp, Layout::kDense);
  TrainOptions t;
  t.max_epochs = 3;
  t.prefer_dense = true;
  const std::vector<real_t> w0 = mlp.init_params(5);
  const auto losses = [&](const char* spec) {
    const std::unique_ptr<Engine> e = make_engine(parse_spec(spec), ctx);
    return run_training(*e, mlp, ctx.data, w0, real_t(0.5), t).losses;
  };
  const std::vector<double> gpu = losses("async/gpu/dense:batch=70");
  EXPECT_EQ(gpu.size(), 3u);
  EXPECT_EQ(losses("async/cpu-seq/dense:batch=70,delay=3"), gpu);
}

// ---- convergence & step size ----

/// The modeled outputs of two epochs of an async gpu engine made from
/// `ctx`: each epoch's cost, the device's running and per-kernel stats
/// and the session's gpu.* counters.
struct GpuOutputs {
  std::vector<double> gpu_cycles, flops, bytes, conflicts, launches;
  gpusim::KernelStats totals;
  std::size_t transfer_bytes = 0;
  std::map<std::string, gpusim::KernelStats> named;
  std::vector<std::pair<std::string, double>> counters;
  bool operator==(const GpuOutputs&) const = default;
};

GpuOutputs gpu_outputs(const Fixture& f, EngineContext ctx) {
  ctx.telemetry = std::make_shared<telemetry::TelemetrySession>(
      telemetry::TelemetryMode::kMetrics);
  const std::unique_ptr<Engine> e =
      make_engine(parse_spec("async/gpu/sparse"), ctx);
  std::vector<real_t> w = f.w0;
  Rng rng(3);
  GpuOutputs out;
  for (int epoch = 0; epoch < 2; ++epoch) {
    e->run_epoch(w, real_t(0.1), rng);
    const CostBreakdown& c = e->last_cost();
    out.gpu_cycles.push_back(c.gpu_cycles);
    out.flops.push_back(c.flops);
    out.bytes.push_back(c.bytes_streamed);
    out.conflicts.push_back(c.write_conflicts);
    out.launches.push_back(c.kernel_launches);
  }
  out.totals = e->device()->totals();
  out.transfer_bytes = e->device()->transfer_bytes();
  out.named = e->device()->named_stats();
  for (const telemetry::MetricSample& m : ctx.telemetry->snapshot().samples) {
    if (m.name.rfind("gpu.", 0) == 0) {
      out.counters.emplace_back(m.name, m.value);
    }
  }
  return out;
}

TEST(GpuHogwild, ReplayMemoMatchesFreshReplay) {
  // The first engine on a memo replays and fills it, the later ones hit
  // it; each must report what an engine replaying its own warps reports.
  Fixture f("w8a");
  const EngineContext fresh =
      make_engine_context(f.ds, f.lr, Layout::kSparse);
  HogwildReplayMemo memo;
  EngineContext shared = fresh;
  shared.hogwild_replay = &memo;
  const GpuOutputs reference = gpu_outputs(f, fresh);
  ASSERT_FALSE(reference.counters.empty());
  ASSERT_EQ(reference.named.count("hogwild"), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(gpu_outputs(f, shared) == reference) << "engine " << i;
    EXPECT_TRUE(memo.sample.has_value());
  }
}

TEST(GpuHogwild, ConcurrentEnginesReplayTheWarpsOnce) {
  // Eight engines on four threads, each on its own device whose spec
  // differs in the per-instruction issue cost: a replay on device k would
  // carry k's issue cycles, so equal stats everywhere mean one replay.
  Fixture f("w8a");
  constexpr int kEngines = 8;
  std::vector<GpuSpec> specs(kEngines, paper_gpu());
  for (int k = 0; k < kEngines; ++k) specs[k].cycles_arith += k;
  auto issue_cycles = [&](HogwildReplayMemo* memo) {
    std::vector<double> issue(kEngines);
    ThreadPool pool(3);
    pool.parallel_for(kEngines, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        gpusim::Device dev(specs[k]);
        GpuHogwildOptions opts;
        opts.replay_memo = memo;
        GpuHogwild hog(f.lr, f.data, dev, opts);
        std::vector<real_t> w = f.w0;
        Rng rng(k);
        hog.run_epoch(w, real_t(0.1), rng);
        issue[k] = dev.named_stats().at("hogwild").issue_cycles;
      }
    });
    return issue;
  };
  const std::vector<double> own = issue_cycles(nullptr);
  EXPECT_NE(own.front(), own.back());  // the probe tells devices apart
  HogwildReplayMemo memo;
  const std::vector<double> shared = issue_cycles(&memo);
  ASSERT_TRUE(memo.sample.has_value());
  for (const double v : shared) EXPECT_EQ(v, memo.sample->issue_cycles);
  EXPECT_NE(std::find(own.begin(), own.end(), shared.front()), own.end());
}

TEST(GpuHogwild, ReplayThatThrowsLeavesTheMemoEmpty) {
  // A device too small for the replay's buffers: every engine on the memo
  // replays and throws the same GPU OOM; nothing is stored.
  Fixture f("w8a");
  GpuSpec tiny = paper_gpu();
  tiny.global_bytes = 1024;
  HogwildReplayMemo memo;
  std::vector<std::string> errors;
  for (int i = 0; i < 3; ++i) {
    gpusim::Device dev(tiny);
    GpuHogwildOptions opts;
    opts.replay_memo = &memo;
    GpuHogwild hog(f.lr, f.data, dev, opts);
    std::vector<real_t> w = f.w0;
    Rng rng(1);
    try {
      hog.run_epoch(w, real_t(0.1), rng);
      ADD_FAILURE() << "replay did not throw";
    } catch (const CheckError& e) {
      errors.emplace_back(e.what());
    }
    EXPECT_FALSE(memo.sample.has_value());
    EXPECT_EQ(dev.allocated(), 0u);
  }
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors.front().find("GPU OOM"), std::string::npos);
  EXPECT_EQ(errors[1], errors[0]);
  EXPECT_EQ(errors[2], errors[0]);
}

TEST(Convergence, PointDetection) {
  RunResult run;
  run.initial_loss = 100;
  run.losses = {50, 20, 10.5, 10.05, 10.0};
  run.epoch_seconds = {1, 1, 1, 1, 1};
  const ConvergencePoint p10 = convergence_point(run, 10.0, 0.10);
  EXPECT_TRUE(p10.reached);
  EXPECT_EQ(p10.epochs, 3u);
  EXPECT_DOUBLE_EQ(p10.seconds, 3.0);
  const ConvergencePoint p1 = convergence_point(run, 10.0, 0.01);
  EXPECT_TRUE(p1.reached);
  EXPECT_EQ(p1.epochs, 4u);
  const ConvergencePoint exact = convergence_point(run, 10.0, 0.0);
  EXPECT_EQ(exact.epochs, 5u);
}

TEST(Convergence, UnreachedIsInfinite) {
  RunResult run;
  run.initial_loss = 100;
  run.losses = {90, 80};
  run.epoch_seconds = {1, 1};
  const ConvergencePoint p = convergence_point(run, 10.0, 0.01);
  EXPECT_FALSE(p.reached);
  EXPECT_EQ(p.seconds, kInfTime);
}

TEST(Convergence, OptimalLossAcrossRuns) {
  RunResult a, b;
  a.initial_loss = b.initial_loss = 10;
  a.losses = {5, 3};
  b.losses = {4, 2};
  const RunResult runs[] = {a, b};
  EXPECT_DOUBLE_EQ(optimal_loss(runs), 2.0);
}

TEST(StepSearch, PicksKnownBestAlpha) {
  // Synthetic engine: loss decays geometrically with rate depending on
  // alpha; alpha=0.01 is fastest; larger alphas diverge.
  auto make_run = [](double alpha, std::size_t epochs, ThreadPool*) {
    RunResult r;
    r.initial_loss = 100;
    double loss = 100;
    const double rate = alpha > 0.05   ? 2.0   // diverges
                        : alpha == 0.01 ? 0.3
                        : alpha == 0.001 ? 0.8
                                         : 0.95;
    for (std::size_t e = 0; e < epochs; ++e) {
      loss *= rate;
      r.losses.push_back(loss);
      r.epoch_seconds.push_back(1.0);
      if (loss > 1000) {
        r.diverged = true;
        break;
      }
    }
    return r;
  };
  StepSearchOptions opts;
  opts.grid = {1e-4, 1e-3, 1e-2, 1e-1};
  opts.probe_epochs = 5;
  opts.full_epochs = 60;
  const StepSearchResult res = search_step_size(make_run, opts);
  EXPECT_DOUBLE_EQ(res.alpha, 0.01);
  EXPECT_EQ(res.probed.size(), 4u);
}

TEST(StepSearch, AllDivergentReportsFailure) {
  auto make_run = [](double, std::size_t, ThreadPool*) {
    RunResult r;
    r.initial_loss = 1;
    r.losses = {1e9};
    r.epoch_seconds = {1.0};
    r.diverged = true;
    return r;
  };
  StepSearchOptions opts;
  opts.grid = {1.0, 10.0};
  const StepSearchResult res = search_step_size(make_run, opts);
  EXPECT_TRUE(res.failed);
  EXPECT_TRUE(res.run.diverged);
  EXPECT_TRUE(std::isinf(res.optimum));
  EXPECT_EQ(res.diverged_probes, (std::vector<double>{1.0, 10.0}));
}

TEST(StepSearch, BatchedSearchesMatchSerialSequence) {
  // Three async searches on w8a as one batch: Hogbatch task graphs
  // (cpu-par), plain Hogwild (cpu-seq) and the warp-synchronous rounds
  // (gpu, sharing one warp replay in the batch) run on each run's private
  // executor. Every result and simulated counter must be that of the
  // three searches run one after another, bit for bit.
  Fixture f("w8a");
  const char* texts[] = {"async/cpu-par/sparse:batch=16",
                         "async/cpu-seq/sparse", "async/gpu/sparse"};
  auto run = [&](ThreadPool* pool) {
    HogwildReplayMemo memo;
    EngineContext base = make_engine_context(f.ds, f.lr, Layout::kSparse);
    base.telemetry = std::make_shared<telemetry::TelemetrySession>(
        telemetry::TelemetryMode::kMetrics);
    if (pool != nullptr) base.hogwild_replay = &memo;
    std::vector<StepSearch> searches;
    for (const char* text : texts) {
      StepSearch s;
      s.make_run = [&, spec = parse_spec(text)](double alpha,
                                                std::size_t epochs,
                                                ThreadPool* executor) {
        EngineContext ctx = base;
        if (executor != nullptr) ctx.pool = executor;
        const std::unique_ptr<Engine> engine = make_engine(spec, ctx);
        TrainOptions t;
        t.max_epochs = epochs;
        return run_training(*engine, f.lr, f.data, f.w0,
                            static_cast<real_t>(alpha), t);
      };
      s.opts.grid = {1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
      s.opts.probe_epochs = 3;
      s.opts.full_epochs = 8;
      searches.push_back(std::move(s));
    }
    std::vector<StepSearchResult> results;
    if (pool != nullptr) {
      results = search_step_sizes(searches, pool);
    } else {
      for (const StepSearch& s : searches) {
        results.push_back(search_step_size(s.make_run, s.opts));
      }
    }
    return std::make_pair(results, base.telemetry->snapshot());
  };
  const auto [serial, serial_metrics] = run(nullptr);
  ThreadPool pool(3);
  const auto [batched, batched_metrics] = run(&pool);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(texts[i]);
    EXPECT_EQ(batched[i].alpha, serial[i].alpha);
    EXPECT_EQ(batched[i].probed, serial[i].probed);
    EXPECT_EQ(batched[i].diverged_probes, serial[i].diverged_probes);
    EXPECT_EQ(batched[i].failed, serial[i].failed);
    EXPECT_EQ(batched[i].optimum, serial[i].optimum);
    EXPECT_EQ(batched[i].run.initial_loss, serial[i].run.initial_loss);
    EXPECT_EQ(batched[i].run.losses, serial[i].run.losses);
    EXPECT_EQ(batched[i].run.epoch_seconds, serial[i].run.epoch_seconds);
    EXPECT_EQ(batched[i].run.diverged, serial[i].run.diverged);
  }
  std::size_t compared = 0;
  for (const telemetry::MetricSample& m : serial_metrics.samples) {
    if (m.name.rfind("async.", 0) != 0 && m.name.rfind("gpu.", 0) != 0) {
      continue;
    }
    const telemetry::MetricSample* c = batched_metrics.find(m.name);
    ASSERT_NE(c, nullptr) << m.name;
    EXPECT_EQ(c->value, m.value) << m.name;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

/// Blocks until `n` runs have entered (or 10 s passed), so the runs of a
/// concurrent phase are forced onto distinct pool participants.
void rendezvous(std::atomic<std::size_t>& entered, std::size_t n) {
  entered.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (entered.load() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

RunResult flat_run(std::size_t epochs) {
  RunResult r;
  r.initial_loss = 1;
  r.losses.assign(epochs, 0.5);
  r.epoch_seconds.assign(epochs, 1.0);
  return r;
}

TEST(StepSearch, ConcurrentMetricsReplayInRunOrder) {
  // Two searches of two probes each. The first probe of search 0 adds
  // 1e16; every other probe adds 1.0 twice. In serial order each 1.0 is
  // absorbed by round-half-to-even (1e16 + 1 == 1e16), so the serial
  // counter reads exactly 1e16. Summed per thread instead, the ones meet
  // first and the counter reads 1e16 + 6; replayed search 1 first, it
  // reads 1e16 + 4. Only replaying every run's updates in the batch's
  // serial order reproduces the serial bits.
  const std::vector<double> grid = {1e-3, 1e-2};
  auto counter_after_batch = [&](ThreadPool* pool) {
    telemetry::TelemetrySession session(telemetry::TelemetryMode::kMetrics);
    telemetry::Counter& c = session.metrics().counter("test.order");
    std::atomic<std::size_t> entered{0};
    std::vector<StepSearch> searches(2);
    for (std::size_t s = 0; s < searches.size(); ++s) {
      searches[s].make_run = [&, s](double alpha, std::size_t epochs,
                                    ThreadPool* executor) {
        if (epochs == 2) {  // the probes
          if (executor != nullptr) rendezvous(entered, 2 * grid.size());
          if (s == 0 && alpha == grid[0]) {
            c.add(1e16);
          } else {
            c.add(1.0);
            c.add(1.0);
          }
        }
        return flat_run(epochs);
      };
      searches[s].opts.grid = grid;
      searches[s].opts.probe_epochs = 2;
      searches[s].opts.full_epochs = 3;
    }
    search_step_sizes(searches, pool);
    return c.value();
  };
  const double serial = counter_after_batch(nullptr);
  EXPECT_EQ(serial, 1e16);
  ThreadPool pool(3);  // four participants: one probe each
  EXPECT_EQ(counter_after_batch(&pool), serial);
}

TEST(StepSearch, ConcurrentFailureRethrowsLowestIndexAfterInFlightRuns) {
  // Grid indices 2 and 5 throw. A serial search dies at index 2; so must
  // the concurrent one, whichever failure happens first in wall time,
  // and only after every run it started has returned. Metrics of the
  // runs a serial search would have reached (0..2) are kept.
  const std::vector<double> grid = {1e-4, 1e-3, 1e-2, 1e-1,
                                    1.0,  10.0, 100.0};
  for (const bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "serial");
    telemetry::TelemetrySession session(telemetry::TelemetryMode::kMetrics);
    telemetry::Counter& runs = session.metrics().counter("test.runs");
    std::atomic<int> started{0}, finished{0};
    auto make_run = [&](double alpha, std::size_t epochs, ThreadPool*) {
      ++started;
      runs.inc();
      const std::size_t i = static_cast<std::size_t>(
          std::find(grid.begin(), grid.end(), alpha) - grid.begin());
      // Later failures finish first in wall time.
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 2 ? 30 : 2));
      ++finished;
      if (i == 2 || i == 5) {
        throw std::runtime_error("run " + std::to_string(i));
      }
      return flat_run(epochs);
    };
    ThreadPool pool(3);
    StepSearchOptions opts;
    opts.grid = grid;
    opts.probe_epochs = 2;
    try {
      const StepSearch search{make_run, opts};
      search_step_sizes({&search, 1}, concurrent ? &pool : nullptr);
      ADD_FAILURE() << "search did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 2");
    }
    EXPECT_EQ(started.load(), finished.load());
    EXPECT_EQ(runs.value(), 3.0);
  }
}

TEST(StepSearch, BatchRethrowsTheFailureTheSerialSequenceHitsFirst) {
  // Search 0's candidate throws after 30 ms; search 1's first probe
  // throws after 1 ms, long before search 0's probes finish and release
  // that candidate. The serial sequence dies in search 0's candidate, so
  // must the batch: a later failure stops no run below it. Every run the
  // batch started returns, and only the runs up to search 0's candidate
  // keep their metrics.
  for (const bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "serial");
    telemetry::TelemetrySession session(telemetry::TelemetryMode::kMetrics);
    telemetry::Counter& runs = session.metrics().counter("test.runs");
    std::atomic<int> started{0}, finished{0};
    std::vector<StepSearch> searches(2);
    for (std::size_t s = 0; s < searches.size(); ++s) {
      searches[s].make_run = [&, s](double alpha, std::size_t epochs,
                                    ThreadPool*) {
        ++started;
        runs.inc();
        const bool probe = epochs == 2;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(s == 1 ? 1 : probe ? 5 : 30));
        ++finished;
        if (s == 0 && !probe) throw std::runtime_error("search 0 candidate");
        if (s == 1 && alpha == 1e-3) {
          throw std::runtime_error("search 1 probe");
        }
        return flat_run(epochs);
      };
      searches[s].opts.grid = {1e-3, 1e-2};
      searches[s].opts.probe_epochs = 2;
      searches[s].opts.full_epochs = 3;
      searches[s].opts.keep_candidates = 1;
    }
    ThreadPool pool(3);
    try {
      search_step_sizes(searches, concurrent ? &pool : nullptr);
      ADD_FAILURE() << "batch did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "search 0 candidate");
    }
    EXPECT_EQ(started.load(), finished.load());
    EXPECT_EQ(runs.value(), 3.0);  // search 0's two probes and candidate
  }
}

}  // namespace
}  // namespace parsgd
