#include "asyncsim/async_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "asyncsim/conflict_ledger.hpp"
#include "asyncsim/gpu_hogwild.hpp"
#include "common/rng.hpp"
#include "hwmodel/cpu_model.hpp"
#include "data/generator.hpp"
#include "data/mlp_view.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"

namespace parsgd {
namespace {

Dataset tiny(const char* name) {
  GeneratorOptions opts;
  opts.scale = 500.0;
  opts.seed = 21;
  return generate_dataset(name, opts);
}

TrainData train_of(const Dataset& ds) {
  TrainData t;
  t.sparse = &ds.x;
  t.dense = ds.x_dense ? &*ds.x_dense : nullptr;
  t.y = ds.y;
  return t;
}

TEST(AsyncSim, OneWorkerMatchesSequentialSgd) {
  // A single logical worker must be *exactly* incremental SGD over the
  // same shuffled order.
  const Dataset ds = tiny("w8a");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 1;
  AsyncSim sim(lr, data, opts);
  EXPECT_FALSE(sim.snapshot_mode());

  auto w_sim = lr.init_params(1);
  Rng rng_sim(99);
  sim.run_epoch(w_sim, real_t(0.1), rng_sim);

  // Replicate by hand: identical partition (all examples, one worker) and
  // the same shuffle consumed the same way.
  auto w_ref = lr.init_params(1);
  Rng rng_ref(99);
  std::vector<std::uint32_t> order(ds.n());
  for (std::uint32_t i = 0; i < ds.n(); ++i) order[i] = i;
  rng_ref.shuffle(order);
  for (const auto i : order) {
    lr.example_step(data.example(i, false), ds.y[i], real_t(0.1), w_ref,
                    w_ref, nullptr);
  }
  EXPECT_EQ(w_sim, w_ref);
}

TEST(AsyncSim, OneWorkerHasNoConflicts) {
  const Dataset ds = tiny("covtype");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 1;
  AsyncSim sim(lr, data, opts);
  auto w = lr.init_params(2);
  Rng rng(1);
  const CostBreakdown c = sim.run_epoch(w, real_t(0.01), rng);
  EXPECT_EQ(c.write_conflicts, 0.0);
  EXPECT_GT(c.flops, 0.0);
  EXPECT_GT(c.model_writes, 0.0);
}

TEST(AsyncSim, DenseDataManyWorkersConflictHeavily) {
  // covtype: every example writes every model line; 56 workers must
  // collide on essentially every line of every window.
  const Dataset ds = tiny("covtype");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 56;
  AsyncSim sim(lr, data, opts);
  EXPECT_TRUE(sim.snapshot_mode());  // small dense model snapshots
  auto w = lr.init_params(3);
  Rng rng(2);
  const CostBreakdown c = sim.run_epoch(w, real_t(0.01), rng);
  EXPECT_GT(c.write_conflicts, 0.0);
}

TEST(AsyncSim, SparseDataConflictsAreRarePerWrite) {
  // news: million-feature model; concurrent writes rarely share lines.
  const Dataset ds = tiny("news");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 56;
  AsyncSim sim(lr, data, opts);
  EXPECT_FALSE(sim.snapshot_mode());  // huge model: in-place mode
  auto w = lr.init_params(4);
  Rng rng(3);
  const CostBreakdown c = sim.run_epoch(w, real_t(0.01), rng);
  // Conflicts exist (Zipf-hot features are shared) but per *relative
  // cost* the wide model absorbs them: the modeled coherency time per
  // epoch, relative to the epoch's useful work, must be far smaller than
  // on the 4-line covtype model where every write serializes.
  const Dataset dsc = tiny("covtype");
  const TrainData datac = train_of(dsc);
  LogisticRegression lrc(dsc.d());
  AsyncSim simc(lrc, datac, opts);
  auto wc = lrc.init_params(4);
  const CostBreakdown cc = simc.run_epoch(wc, real_t(0.01), rng);

  const CpuModel model(paper_cpu());
  auto coherency_share = [&](const CostBreakdown& cost, std::size_t dim) {
    CpuWorkload wl;
    wl.per_epoch = cost;
    wl.threads = 56;
    wl.vectorized = false;
    wl.model_bytes = static_cast<double>(dim) * sizeof(real_t);
    wl.working_set_bytes = 1e6;
    const CpuTiming t = model.epoch_time(wl);
    return t.coherency_seconds / t.seconds;
  };
  EXPECT_LT(coherency_share(c, ds.d()), coherency_share(cc, dsc.d()));
}

TEST(AsyncSim, DeterministicGivenSeed) {
  const Dataset ds = tiny("real-sim");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 8;
  auto run = [&] {
    AsyncSim sim(lr, data, opts);
    auto w = lr.init_params(5);
    Rng rng(77);
    sim.run_epoch(w, real_t(0.1), rng);
    return w;
  };
  EXPECT_EQ(run(), run());
}

TEST(AsyncSim, EpochVisitsEveryExampleOnce) {
  // With alpha tiny but nonzero, the number of model writes equals the
  // total touched coordinates of all examples (each visited exactly once).
  const Dataset ds = tiny("w8a");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 7;
  opts.force_snapshots = true;
  AsyncSim sim(lr, data, opts);
  auto w = lr.init_params(6);
  Rng rng(5);
  const CostBreakdown c = sim.run_epoch(w, real_t(1e-6), rng);
  double expected_reads = 0;
  for (std::size_t i = 0; i < ds.n(); ++i) {
    expected_reads += static_cast<double>(ds.x.row_nnz(i));
  }
  EXPECT_DOUBLE_EQ(c.model_reads, expected_reads);
}

TEST(AsyncSim, StalenessDegradesDenseConvergence) {
  // Snapshot-mode staleness: more workers -> equal-or-worse loss after
  // the same number of epochs on dense data (the Table III effect).
  const Dataset ds = tiny("covtype");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  auto loss_after = [&](int workers) {
    AsyncSimOptions opts;
    opts.workers = workers;
    AsyncSim sim(lr, data, opts);
    auto w = lr.init_params(7);
    Rng rng(11);
    for (int e = 0; e < 3; ++e) sim.run_epoch(w, real_t(1.0), rng);
    return lr.dataset_loss(data, w, false);
  };
  EXPECT_LE(loss_after(1), loss_after(56) * 1.05);
}

TEST(AsyncSim, HogbatchUsesBatches) {
  const Dataset base = tiny("covtype");
  const Dataset mlp_ds = make_mlp_dataset(base);
  const TrainData data = train_of(mlp_ds);
  Mlp mlp(base.profile.mlp_architecture());
  AsyncSimOptions opts;
  opts.workers = 4;
  opts.batch = 32;
  opts.prefer_dense = true;
  AsyncSim sim(mlp, data, opts);
  EXPECT_TRUE(sim.snapshot_mode());  // MLP: dense updates
  auto w = mlp.init_params(8);
  Rng rng(13);
  const double before = mlp.dataset_loss(data, w, true);
  const CostBreakdown c = sim.run_epoch(w, real_t(0.05), rng);
  EXPECT_GT(c.flops, 0.0);
  EXPECT_LT(mlp.dataset_loss(data, w, true), before);
}

TEST(AsyncSim, RejectsBadOptions) {
  const Dataset ds = tiny("w8a");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 0;
  EXPECT_THROW(AsyncSim(lr, data, opts), CheckError);
}

TEST(ModelLine, LineGranularity) {
  EXPECT_EQ(model_line(0), 0u);
  EXPECT_EQ(model_line(15), 0u);
  EXPECT_EQ(model_line(16), 1u);   // 64 B / 4 B = 16 floats per line
  EXPECT_EQ(model_line(53), 3u);   // covtype model spans 4 lines
}

// ---- ConflictLedger ----

TEST(ConflictLedger, SizedToModelLines) {
  EXPECT_EQ(ConflictLedger(54).lines(), 4u);
  EXPECT_EQ(ConflictLedger(16).lines(), 1u);
  EXPECT_EQ(ConflictLedger(17).lines(), 2u);
}

TEST(ConflictLedger, SingleWriterNeverConflicts) {
  ConflictLedger ledger(64);
  const std::vector<index_t> touched = {0, 17, 40};
  for (int u = 0; u < 10; ++u) ledger.record(3, touched);
  ledger.record_all(3);
  EXPECT_EQ(ledger.conflicts(), 0.0);
}

TEST(ConflictLedger, AlternatingWorkersCountEveryEvent) {
  // Workers 0 and 1 alternate on line 0 (coordinates 1 and 2): all 6
  // unit-line events ping-pong. Line 2 (coordinate 33) is worker 0's
  // alone and costs nothing.
  ConflictLedger ledger(64);
  for (int u = 0; u < 3; ++u) {
    ledger.record(0, std::vector<index_t>{1, 33});
    ledger.record(1, std::vector<index_t>{2});
  }
  EXPECT_EQ(ledger.conflicts(), 6.0);
  // A dense unit of worker 1 adds one event on each of the 4 lines; only
  // lines 0 and 2 have two writers.
  ledger.record_all(1);
  EXPECT_EQ(ledger.conflicts(), 7.0 + 4.0);
}

TEST(ConflictLedger, LineTouchedTwiceInOneUnitCountsOnce) {
  ConflictLedger ledger(64);
  ledger.record(0, std::vector<index_t>{0, 5, 15, 5});  // all line 0
  ledger.record(1, std::vector<index_t>{3, 3});
  EXPECT_EQ(ledger.conflicts(), 2.0);
}

TEST(ConflictLedger, ClearStartsAFreshWindowAcrossStampWraps) {
  // More windows (and units) than a 16-bit stamp holds. In window w both
  // workers write line w % kCycle, so from window kCycle on every window
  // reuses a line last written one full stamp cycle earlier. An entry
  // that stale mistaken for live would skip the window's line list and
  // drop the window's 2 conflicts.
  constexpr int kCycle = (1 << 16) - 1;
  ConflictLedger ledger(std::size_t(16) * kCycle);
  for (int window = 0; window < kCycle + 300; ++window) {
    ledger.clear();
    const std::vector<index_t> line = {
        static_cast<index_t>(16 * (window % kCycle))};
    ledger.record(0, line);
    ledger.record(1, line);
    ASSERT_EQ(ledger.conflicts(), 2.0) << "window " << window;
  }
  // One window spanning a full unit-stamp cycle: the second writer of
  // line 0, kCycle units after the first, is a new unit and still counts.
  ledger.clear();
  ledger.record(0, std::vector<index_t>{0});
  const std::vector<index_t> other = {16};
  for (int unit = 1; unit < kCycle; ++unit) ledger.record(0, other);
  ledger.record(1, std::vector<index_t>{0});
  EXPECT_EQ(ledger.conflicts(), 2.0);
}

// ---- GPU async ----

TEST(GpuHogwild, ConvergesAndCharges) {
  const Dataset ds = tiny("w8a");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());
  gpusim::Device dev(paper_gpu());
  GpuHogwildOptions opts;
  opts.instrument_warps = 16;
  opts.concurrency_warps = 2;  // 64-example rounds: updates land within
                               // the tiny test dataset's epochs
  GpuHogwild hog(lr, data, dev, opts);
  auto w = lr.init_params(9);
  Rng rng(17);
  const double before = lr.dataset_loss(data, w, false);
  CostBreakdown c;
  for (int e = 0; e < 5; ++e) c = hog.run_epoch(w, real_t(0.1), rng);
  EXPECT_LT(lr.dataset_loss(data, w, false), before);
  EXPECT_GT(c.gpu_cycles, 0.0);
  EXPECT_EQ(c.kernel_launches, 1.0);
}

TEST(GpuHogwild, RoundStalenessHurtsDenseData) {
  // Huge rounds (one device-wide snapshot) behave like giant batches: at
  // an aggressive step size the dense problem converges more slowly than
  // round-free sequential SGD.
  const Dataset ds = tiny("covtype");
  const TrainData data = train_of(ds);
  LogisticRegression lr(ds.d());

  auto w_gpu = lr.init_params(10);
  gpusim::Device dev(paper_gpu());
  GpuHogwildOptions gopts;
  gopts.instrument_warps = 8;
  GpuHogwild hog(lr, data, dev, gopts);
  Rng rng1(19);
  for (int e = 0; e < 3; ++e) hog.run_epoch(w_gpu, real_t(1.0), rng1);

  auto w_seq = lr.init_params(10);
  AsyncSimOptions aopts;
  aopts.workers = 1;
  AsyncSim seq(lr, data, aopts);
  Rng rng2(19);
  for (int e = 0; e < 3; ++e) seq.run_epoch(w_seq, real_t(1.0), rng2);

  EXPECT_LE(lr.dataset_loss(data, w_seq, false),
            lr.dataset_loss(data, w_gpu, false) * 1.05);
}

/// The round semantics spelled out naively: every touched index of a
/// round is collected, then sorted and deduplicated at the round's end.
std::vector<real_t> naive_hogwild_rounds(const Model& model,
                                         const TrainData& data,
                                         std::size_t round,
                                         std::size_t epochs, real_t alpha,
                                         std::vector<real_t> w, Rng& rng) {
  std::vector<real_t> delta(model.dim(), 0);
  std::vector<index_t> pending, touched;
  std::size_t filled = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    std::vector<std::uint32_t> order(data.n());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    rng.shuffle(order);
    for (const std::uint32_t i : order) {
      model.example_step(data.example(i, false), data.y[i], alpha, w, delta,
                         &touched);
      pending.insert(pending.end(), touched.begin(), touched.end());
      if (++filled >= round) {
        std::sort(pending.begin(), pending.end());
        pending.erase(std::unique(pending.begin(), pending.end()),
                      pending.end());
        for (const index_t j : pending) {
          w[j] += delta[j];
          delta[j] = 0;
        }
        pending.clear();
        filled = 0;
      }
    }
  }
  return w;
}

TEST(GpuHogwild, DistinctRoundSetMatchesSortUniqueReference) {
  // 37 examples over 12 features: every feature is touched by many
  // examples of a round and again in the next round. Rounds of 32 and 96
  // examples straddle epoch boundaries (and span several epochs).
  const std::size_t n = 37, d = 12;
  Rng gen(5);
  CsrMatrix::Builder b(d);
  std::vector<real_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t j = 0; j < d; ++j) {
      if (gen.uniform() < 0.4) {
        idx.push_back(j);
        val.push_back(static_cast<real_t>(gen.normal(0.0, 1.0)));
      }
    }
    b.add_row(idx, val);
    y[i] = gen.uniform() < 0.5 ? real_t(-1) : real_t(1);
  }
  const CsrMatrix x = std::move(b).build();
  TrainData data;
  data.sparse = &x;
  data.y = y;
  LogisticRegression lr(d);
  for (const int warps : {1, 3}) {
    SCOPED_TRACE(warps);
    gpusim::Device dev(paper_gpu());
    GpuHogwildOptions opts;
    opts.instrument_warps = 2;
    opts.concurrency_warps = warps;
    GpuHogwild hog(lr, data, dev, opts);
    std::vector<real_t> w = lr.init_params(3);
    const std::vector<real_t> w0 = w;
    Rng rng(11);
    const std::size_t epochs = 7;
    for (std::size_t e = 0; e < epochs; ++e) hog.run_epoch(w, real_t(0.3), rng);
    Rng ref_rng(11);
    const std::vector<real_t> ref = naive_hogwild_rounds(
        lr, data, static_cast<std::size_t>(warps) * 32, epochs, real_t(0.3),
        w0, ref_rng);
    EXPECT_EQ(w, ref);
    EXPECT_NE(w, w0);
  }
}

TEST(GpuHogwild, RejectsDenseUpdateModels) {
  const Dataset base = tiny("covtype");
  const TrainData data = train_of(base);
  Mlp mlp(base.profile.mlp_architecture());
  gpusim::Device dev(paper_gpu());
  EXPECT_THROW(GpuHogwild(mlp, data, dev, {}), CheckError);
}

TEST(GpuHogbatch, SequentialMinibatchSemantics) {
  const Dataset base = tiny("covtype");
  const Dataset mlp_ds = make_mlp_dataset(base);
  const TrainData data = train_of(mlp_ds);
  Mlp mlp(base.profile.mlp_architecture());
  gpusim::Device dev(paper_gpu());
  GpuHogbatchOptions opts;
  opts.batch = 64;
  opts.prefer_dense = true;
  GpuHogbatch hog(mlp, data, dev, opts);
  auto w = mlp.init_params(11);
  Rng rng(23);
  const double before = mlp.dataset_loss(data, w, true);
  const CostBreakdown c = hog.run_epoch(w, real_t(0.5), rng);
  EXPECT_LT(mlp.dataset_loss(data, w, true), before);
  // Many launches per epoch: one set of primitive kernels per batch.
  const double n_batches =
      std::ceil(static_cast<double>(data.n()) / opts.batch);
  EXPECT_GE(c.kernel_launches, n_batches);
  EXPECT_GT(c.gpu_cycles, 0.0);
}

}  // namespace
}  // namespace parsgd
