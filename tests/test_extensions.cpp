// Tests for the library-surface extensions: step-size schedules and the
// streaming stats accumulator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "sgd/async_engine.hpp"
#include "sgd/schedule.hpp"

namespace parsgd {
namespace {

// ---- schedules ----

TEST(Schedules, ConstantIsConstant) {
  ConstantSchedule s(0.5);
  EXPECT_DOUBLE_EQ(s.at(0), 0.5);
  EXPECT_DOUBLE_EQ(s.at(1000), 0.5);
  EXPECT_EQ(s.name(), "constant");
  EXPECT_THROW(ConstantSchedule(-1), CheckError);
}

TEST(Schedules, InverseTime) {
  InverseTimeSchedule s(1.0, 0.5);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(2), 0.5);
  EXPECT_DOUBLE_EQ(s.at(6), 0.25);
}

TEST(Schedules, StepDecay) {
  StepDecaySchedule s(1.0, 0.1, 10);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(9), 1.0);
  EXPECT_DOUBLE_EQ(s.at(10), 0.1);
  EXPECT_NEAR(s.at(25), 0.01, 1e-12);
  EXPECT_THROW(StepDecaySchedule(1.0, 1.5, 10), CheckError);
  EXPECT_THROW(StepDecaySchedule(1.0, 0.5, 0), CheckError);
}

TEST(Schedules, Sqrt) {
  SqrtSchedule s(2.0);
  EXPECT_DOUBLE_EQ(s.at(0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(3), 1.0);
}

TEST(Schedules, AllMonotoneNonIncreasing) {
  const ConstantSchedule c(1);
  const InverseTimeSchedule it(1, 0.1);
  const StepDecaySchedule sd(1, 0.5, 7);
  const SqrtSchedule sq(1);
  for (const StepSchedule* s :
       {static_cast<const StepSchedule*>(&c),
        static_cast<const StepSchedule*>(&it),
        static_cast<const StepSchedule*>(&sd),
        static_cast<const StepSchedule*>(&sq)}) {
    for (std::size_t e = 1; e < 50; ++e) {
      EXPECT_LE(s->at(e), s->at(e - 1) + 1e-15) << s->name() << " @" << e;
    }
  }
}

TEST(Schedules, DecayingScheduleStabilizesTraining) {
  // A decaying schedule tames a step size that diverges when constant.
  GeneratorOptions g;
  g.scale = 400;
  g.seed = 19;
  const Dataset ds = generate_dataset("covtype", g);
  TrainData data;
  data.sparse = &ds.x;
  data.dense = &*ds.x_dense;
  data.y = ds.y;
  LogisticRegression lr(ds.d());
  const ScaleContext ctx = make_scale_context(ds, lr, true);
  const auto w0 = lr.init_params(3);

  AsyncCpuOptions opts;
  opts.arch = Arch::kCpuSeq;
  opts.prefer_dense = true;
  AsyncCpuEngine engine(lr, data, ctx, opts);
  TrainOptions t;
  t.max_epochs = 15;
  t.prefer_dense = true;
  const RunResult constant =
      run_training(engine, lr, data, w0, real_t(50.0), t);
  const InverseTimeSchedule decay(50.0, 5.0);
  t.schedule = &decay;
  const RunResult decayed =
      run_training(engine, lr, data, w0, real_t(50.0), t);
  EXPECT_LE(decayed.best_loss(), constant.best_loss());
  EXPECT_FALSE(decayed.diverged);
}

// ---- streaming stats ----

TEST(StreamingStatsTest, MomentsMatchClosedForm) {
  StreamingStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStatsTest, Percentiles) {
  StreamingStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_THROW(s.percentile(1.5), CheckError);
}

TEST(StreamingStatsTest, EmptyAndSingle) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_THROW(s.percentile(0.5), CheckError);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
}

TEST(StreamingStatsTest, MergeEqualsCombined) {
  StreamingStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.percentile(0.5), all.percentile(0.5));
}

}  // namespace
}  // namespace parsgd
