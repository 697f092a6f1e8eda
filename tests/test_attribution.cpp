// Time-attribution subsystem (DESIGN.md §18): the ledger's exact-sum
// normalization, the heartbeat status line, and the core contract that
// attribution observes a run without perturbing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/generator.hpp"
#include "engine_decorators.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/spec.hpp"
#include "telemetry/attribution.hpp"

namespace parsgd {
namespace {

using telemetry::AttributionLedger;
using telemetry::EpochAttribution;
using telemetry::RunStatus;

struct Fixture {
  Dataset ds;
  LogisticRegression lr;
  EngineContext ctx;
  std::vector<real_t> w0;

  Fixture()
      : ds(generate_dataset("w8a",
                            GeneratorOptions{.seed = 5, .scale = 500.0})),
        lr(ds.d()) {
    ctx = make_engine_context(ds, lr, Layout::kSparse);
    w0 = lr.init_params(5);
  }

  RunResult run(const std::string& spec_text, const TrainOptions& opts) const {
    const std::unique_ptr<Engine> engine =
        make_engine(parse_spec(spec_text), ctx);
    return run_training(*engine, lr, ctx.data, w0, real_t(0.1), opts);
  }
};

TrainOptions epochs(std::size_t n) {
  TrainOptions t;
  t.max_epochs = n;
  return t;
}

// ------------------------------------------------------------ the ledger

TEST(AttributionLedger, NormalizedRecordsSumExactly) {
  AttributionLedger ledger;
  EpochAttribution e;
  e.epoch = 0;
  e.modeled_s = 1.0;
  e.m_net_s = 0.25;
  e.m_stall_s = 0.05;
  e.host_s = 0.5;
  e.h_queue_s = 0.1;
  e.h_ready_s = 0.05;
  e.h_recovery_s = -0.5;  // raw measurement noise: clamped at 0
  ledger.add(e);
  const EpochAttribution n = ledger.last();
  EXPECT_DOUBLE_EQ(n.m_compute_s + n.m_net_s + n.m_stall_s, n.modeled_s);
  EXPECT_DOUBLE_EQ(n.m_compute_s, 0.7);
  EXPECT_DOUBLE_EQ(n.h_recovery_s, 0.0);
  EXPECT_DOUBLE_EQ(n.h_compute_s + n.h_queue_s + n.h_ready_s +
                       n.h_recovery_s + n.h_checkpoint_s,
                   n.host_s);
}

TEST(AttributionLedger, OvershootScalesBucketsDownProportionally) {
  // Measured waits exceed the wall time (double-counted overlap):
  // buckets scale down to fit, compute residual goes to zero, the sum
  // identity still holds exactly.
  AttributionLedger ledger;
  EpochAttribution e;
  e.host_s = 1.0;
  e.h_queue_s = 1.5;
  e.h_ready_s = 0.5;
  ledger.add(e);
  const EpochAttribution n = ledger.last();
  EXPECT_DOUBLE_EQ(n.h_compute_s, 0.0);
  EXPECT_DOUBLE_EQ(n.h_queue_s, 0.75);
  EXPECT_DOUBLE_EQ(n.h_ready_s, 0.25);
}

TEST(AttributionLedger, MeanAndTotalFoldEpochs) {
  AttributionLedger ledger;
  for (int i = 0; i < 4; ++i) {
    EpochAttribution e;
    e.epoch = i;
    e.modeled_s = 2.0;
    e.m_net_s = 0.5;
    e.host_s = 1.0;
    e.h_queue_s = 0.25;
    e.loss = 10.0 - i;
    ledger.add(e);
  }
  EXPECT_DOUBLE_EQ(ledger.total().modeled_s, 8.0);
  EXPECT_DOUBLE_EQ(ledger.total().m_net_s, 2.0);
  EXPECT_DOUBLE_EQ(ledger.mean().modeled_s, 2.0);
  EXPECT_DOUBLE_EQ(ledger.mean().h_queue_s, 0.25);
  EXPECT_DOUBLE_EQ(ledger.total().loss, 7.0);
}

TEST(AttributionLedger, SplitViewsHaveFixedBucketOrder) {
  const EpochAttribution e;
  const auto modeled = telemetry::modeled_split(e);
  ASSERT_EQ(modeled.size(), 3u);
  EXPECT_STREQ(modeled[0].name, "compute");
  EXPECT_STREQ(modeled[1].name, "net");
  EXPECT_STREQ(modeled[2].name, "stall");
  const auto host = telemetry::host_split(e);
  ASSERT_EQ(host.size(), 5u);
  EXPECT_STREQ(host[0].name, "compute");
  EXPECT_STREQ(host[1].name, "queue_wait");
  EXPECT_STREQ(host[2].name, "ready_wait");
  EXPECT_STREQ(host[3].name, "recovery");
  EXPECT_STREQ(host[4].name, "checkpoint");
}

// ------------------------------------------------- the heartbeat line

TEST(RunStatus, StatusLineMatchesLegacyHeartbeatFormat) {
  RunStatus s;
  s.engine = "async/cpu-par/hogwild";
  s.epoch = 3;
  s.epochs_total = 10;
  s.loss = 0.5;
  s.eta_s = 2;
  // With no resilience/attribution engaged the line is byte-for-
  // byte the pre-ledger heartbeat format — log scrapers keep working.
  EXPECT_EQ(telemetry::format_status_line(s),
            "async/cpu-par/hogwild epoch 3/10 loss=0.5 eta=2s");
  s.has_resilience = true;
  s.recoveries = 1;
  EXPECT_EQ(telemetry::format_status_line(s),
            "async/cpu-par/hogwild epoch 3/10 loss=0.5 eta=2s rec=1");
}

TEST(RunStatus, StatusLineAppendsTopBuckets) {
  RunStatus s;
  s.engine = "e";
  s.epoch = 1;
  s.epochs_total = 2;
  s.loss = 1;
  s.eta_s = -1;  // unknown: omitted
  s.has_attribution = true;
  s.mean.host_s = 1.0;
  s.mean.h_compute_s = 0.5;
  s.mean.h_queue_s = 0.3;
  s.mean.h_ready_s = 0.2;
  EXPECT_EQ(
      telemetry::format_status_line(s),
      "e epoch 1/2 loss=1 split=compute:50%|queue_wait:30%|ready_wait:20%");
}

// ------------------------------------------- run_training integration

TEST(Attribution, ObservationDoesNotPerturbTrajectories) {
  Fixture f;
  const RunResult base = f.run("async/cpu-par/sparse", epochs(6));
  TrainOptions observed = epochs(6);
  observed.attribute = true;
  observed.heartbeat_seconds = 1e-9;  // every epoch logs a status line
  const RunResult r = f.run("async/cpu-par/sparse", observed);
  EXPECT_EQ(r.losses, base.losses);
  EXPECT_EQ(r.epoch_seconds, base.epoch_seconds);
  EXPECT_TRUE(base.attribution.empty());
  ASSERT_EQ(r.attribution.size(), 6u);
}

void expect_exact_sums(const RunResult& r, std::size_t n_epochs) {
  ASSERT_EQ(r.attribution.size(), n_epochs);
  for (const EpochAttribution& e : r.attribution) {
    const double m_sum = e.m_compute_s + e.m_net_s + e.m_stall_s;
    const double h_sum = e.h_compute_s + e.h_queue_s + e.h_ready_s +
                         e.h_recovery_s + e.h_checkpoint_s;
    // "Within 1%" is the acceptance floor; normalization makes the sums
    // exact up to float rounding.
    EXPECT_NEAR(m_sum, e.modeled_s, 1e-9 * std::max(1.0, e.modeled_s));
    EXPECT_NEAR(h_sum, e.host_s, 1e-9 * std::max(1.0, e.host_s));
    EXPECT_GE(e.m_compute_s, 0.0);
    EXPECT_GE(e.h_compute_s, 0.0);
  }
}

TEST(Attribution, BucketsSumToEpochTimeOnSyncAndAsync) {
  Fixture f;
  TrainOptions t = epochs(4);
  t.attribute = true;
  expect_exact_sums(f.run("sync/cpu-par/sparse:batch=64", t), 4);
  expect_exact_sums(f.run("async/cpu-par/sparse", t), 4);
}

/// Records the pool.queue_wait_ns histogram's growth over each carried
/// epoch: the raw per-epoch wait the ledger divides by the worker count.
class QueueWaitProbe final : public ForwardingEngine {
 public:
  using ForwardingEngine::ForwardingEngine;

  double run_epoch_carried(std::span<real_t> w, real_t alpha, Rng& rng,
                           EpochCarry& carry) override {
    telemetry::Histogram& h =
        telemetry()->metrics().histogram("pool.queue_wait_ns");
    const double before = h.sum();
    const double secs =
        ForwardingEngine::run_epoch_carried(w, alpha, rng, carry);
    waits_s.push_back((h.sum() - before) * 1e-9);
    return secs;
  }

  std::vector<double> waits_s;
};

TEST(Attribution, QueueWaitIsSharedOverTheEnginesPoolWorkers) {
  // Per-worker queue waits overlap in wall time, so the ledger divides
  // them by the worker count of the pool the engine runs on — here an
  // injected 2-worker pool, whatever the process-global pool's size.
  // Mini-batch epochs run task graphs, which wake every worker, so a
  // wait is always recorded. On a loaded host an epoch's waits can
  // exceed its host time; the ledger then scales its host buckets down
  // (h_compute_s == 0), and only the bound holds for that epoch.
  Fixture f;
  ThreadPool pool(2);
  EngineContext ctx = f.ctx;
  ctx.pool = &pool;
  ctx.telemetry = std::make_shared<telemetry::TelemetrySession>(
      telemetry::TelemetryMode::kMetrics);
  QueueWaitProbe engine(
      make_engine(parse_spec("sync/cpu-par/sparse:batch=64"), ctx));
  engine.set_telemetry(ctx.telemetry);
  TrainOptions t = epochs(6);
  t.attribute = true;
  const RunResult r = run_training(engine, f.lr, ctx.data, f.w0, 0.1f, t);
  ASSERT_EQ(r.attribution.size(), 6u);
  ASSERT_EQ(engine.waits_s.size(), 6u);
  double waited_s = 0;
  for (std::size_t e = 0; e < 6; ++e) {
    const EpochAttribution& a = r.attribution[e];
    const double raw_s = engine.waits_s[e];
    waited_s += raw_s;
    if (a.h_compute_s > 0) {
      EXPECT_NEAR(a.h_queue_s * 2.0, raw_s, 1e-9 * raw_s) << "epoch " << e;
    } else {
      EXPECT_LE(a.h_queue_s * 2.0, raw_s * (1 + 1e-9)) << "epoch " << e;
    }
  }
  EXPECT_GT(waited_s, 0);
  EXPECT_NEAR(waited_s,
              ctx.telemetry->metrics().histogram("pool.queue_wait_ns").sum() *
                  1e-9,
              1e-9 * waited_s);
}

}  // namespace
}  // namespace parsgd
