// Flight recorder + time-attribution subsystem (DESIGN.md §18): the
// seqlock ring's ordering and torn-read-free concurrent snapshots, the
// cadence gate, the ledger's exact-sum normalization, both status
// surfaces (heartbeat line and --status-file JSON) rendering from one
// RunStatus, the record= spec key grammar, checkpoint v2 persistence of
// the window (incl. v1 compatibility and crash post-mortems), and the
// core contract that attribution observes a run without perturbing it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "data/generator.hpp"
#include "faults/fault_plan.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "report/json.hpp"
#include "sgd/checkpoint.hpp"
#include "sgd/spec.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/flight_recorder.hpp"

namespace parsgd {
namespace {

using telemetry::AttributionLedger;
using telemetry::EpochAttribution;
using telemetry::FlightRecorder;
using telemetry::FlightSample;
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

// ------------------------------------------------------------- ring core

TEST(FlightRecorder, SampleArrayRoundTrips) {
  FlightSample s;
  s.t_s = 1.5;
  s.epoch = 7;
  s.loss = 0.25;
  s.modeled_s = 2.0;
  s.host_s = 0.5;
  s.m_net_s = 0.75;
  s.m_stall_s = 0.125;
  s.h_queue_s = 0.01;
  s.h_ready_s = 0.02;
  s.h_stall_s = 0.03;
  s.h_recovery_s = 0.04;
  s.h_checkpoint_s = 0.05;
  s.recoveries = 2;
  const FlightSample back = FlightSample::from_array(s.to_array());
  EXPECT_EQ(back.to_array(), s.to_array());
}

TEST(FlightRecorder, RingKeepsNewestFramesOldestFirst) {
  FlightRecorder rec(100.0, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    FlightSample s;
    s.epoch = i;
    s.t_s = i;
    rec.push(s, static_cast<double>(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  const std::vector<FlightSample> window = rec.window();
  ASSERT_EQ(window.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(window[static_cast<std::size_t>(i)].epoch, 6.0 + i);
  }
}

TEST(FlightRecorder, WindowShorterThanCapacityBeforeWrap) {
  FlightRecorder rec(100.0);
  EXPECT_TRUE(rec.window().empty());
  FlightSample s;
  s.epoch = 1;
  rec.push(s, 0.0);
  ASSERT_EQ(rec.window().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.window()[0].epoch, 1.0);
}

TEST(FlightRecorder, CadenceGatesDue) {
  FlightRecorder rec(100.0);
  EXPECT_TRUE(rec.due(0.0));  // first frame is always due
  rec.push(FlightSample{}, 0.0);
  EXPECT_FALSE(rec.due(0.05));
  EXPECT_TRUE(rec.due(0.11));
  rec.push(FlightSample{}, 0.11);
  EXPECT_FALSE(rec.due(0.2));
}

TEST(FlightRecorder, ConcurrentReadersNeverSeeTornFrames) {
  // Single writer laps a tiny ring while readers snapshot concurrently.
  // Every field of a frame carries the same value, so any torn read
  // (fields from two different frames) is detectable. Run under TSan via
  // scripts/check.sh, this also proves the seqlock is race-annotated
  // correctly.
  FlightRecorder rec(0.001, /*capacity=*/8);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const FlightSample& s : rec.window()) {
          const auto a = s.to_array();
          for (const double v : a) {
            if (v != a[0]) torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int i = 1; i <= 20000; ++i) {
    FlightSample s;
    const auto fill = static_cast<double>(i);
    s.t_s = fill;
    s.epoch = fill;
    s.loss = fill;
    s.modeled_s = fill;
    s.host_s = fill;
    s.m_net_s = fill;
    s.m_stall_s = fill;
    s.h_queue_s = fill;
    s.h_ready_s = fill;
    s.h_stall_s = fill;
    s.h_recovery_s = fill;
    s.h_checkpoint_s = fill;
    s.recoveries = fill;
    rec.push(s, fill);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(rec.recorded(), 20000u);
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
  e.h_stall_s = -0.5;  // raw measurement noise: clamped at 0
  ledger.add(e);
  const EpochAttribution n = ledger.last();
  EXPECT_DOUBLE_EQ(n.m_compute_s + n.m_net_s + n.m_stall_s, n.modeled_s);
  EXPECT_DOUBLE_EQ(n.m_compute_s, 0.7);
  EXPECT_DOUBLE_EQ(n.h_stall_s, 0.0);
  EXPECT_DOUBLE_EQ(n.h_compute_s + n.h_queue_s + n.h_ready_s + n.h_stall_s +
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
  ASSERT_EQ(host.size(), 6u);
  EXPECT_STREQ(host[0].name, "compute");
  EXPECT_STREQ(host[1].name, "queue_wait");
  EXPECT_STREQ(host[2].name, "ready_wait");
  EXPECT_STREQ(host[3].name, "stall");
  EXPECT_STREQ(host[4].name, "recovery");
  EXPECT_STREQ(host[5].name, "checkpoint");
}

// ---------------------------------------------------- the status surfaces

TEST(RunStatus, StatusLineMatchesLegacyHeartbeatFormat) {
  RunStatus s;
  s.engine = "async/cpu-par/hogwild";
  s.epoch = 3;
  s.epochs_total = 10;
  s.loss = 0.5;
  s.eta_s = 2;
  // With no resilience/recorder/attribution engaged the line is byte-for-
  // byte the pre-ledger heartbeat format — log scrapers keep working.
  EXPECT_EQ(telemetry::format_status_line(s),
            "async/cpu-par/hogwild epoch 3/10 loss=0.5 eta=2s");
  s.has_resilience = true;
  s.recoveries = 1;
  EXPECT_EQ(telemetry::format_status_line(s),
            "async/cpu-par/hogwild epoch 3/10 loss=0.5 eta=2s rec=1");
}

TEST(RunStatus, StatusLineAppendsFramesAndTopBuckets) {
  RunStatus s;
  s.engine = "e";
  s.epoch = 1;
  s.epochs_total = 2;
  s.loss = 1;
  s.eta_s = -1;  // unknown: omitted
  s.record_ms = 100;
  s.flight_frames = 7;
  s.has_attribution = true;
  s.mean.host_s = 1.0;
  s.mean.h_compute_s = 0.5;
  s.mean.h_queue_s = 0.3;
  s.mean.h_stall_s = 0.2;
  EXPECT_EQ(telemetry::format_status_line(s),
            "e epoch 1/2 loss=1 frames=7"
            " split=compute:50%|queue_wait:30%|stall:20%");
}

TEST(RunStatus, StatusFileRoundTripsThroughJsonParser) {
  RunStatus s;
  s.engine = "sync/cluster/allreduce/n4";
  s.epoch = 5;
  s.epochs_total = 8;
  s.loss = 12.5;
  s.eta_s = 1.25;
  s.record_ms = 50;
  s.flight_frames = 9;
  s.has_attribution = true;
  s.mean.modeled_s = 2.0;
  s.mean.m_compute_s = 1.0;
  s.mean.m_net_s = 0.75;
  s.mean.m_stall_s = 0.25;
  s.mean.host_s = 0.5;
  s.mean.h_compute_s = 0.5;
  s.last = s.mean;
  s.modeled_total_s = 10.0;
  s.host_total_s = 2.5;
  s.nodes.push_back({0, 100.0, 1.5, 0.125, false});
  s.nodes.push_back({1, 90.0, 1.25, 0.25, true});

  const std::string path = testing::TempDir() + "/parsgd_status.json";
  ASSERT_TRUE(telemetry::write_status_file(path, s));
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  const report::Json doc = report::parse_json(buf.str());

  EXPECT_EQ(doc.at("schema").as_number(), 1.0);
  EXPECT_EQ(doc.at("engine").as_string(), s.engine);
  EXPECT_EQ(doc.at("epoch").as_number(), 5.0);
  EXPECT_EQ(doc.at("loss").as_number(), 12.5);
  EXPECT_EQ(doc.at("record").at("frames").as_number(), 9.0);
  const report::Json& mean = doc.at("attribution").at("mean");
  EXPECT_EQ(mean.at("modeled_s").as_number(), 2.0);
  double modeled_sum = 0;
  for (const auto& [name, v] : mean.at("modeled_split").as_object()) {
    modeled_sum += v.as_number();
  }
  // The 1% acceptance contract: published buckets sum to the epoch time.
  EXPECT_NEAR(modeled_sum, 2.0, 0.02);
  const auto& nodes = doc.at("nodes").as_array();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_FALSE(nodes[0].at("down").as_bool());
  EXPECT_TRUE(nodes[1].at("down").as_bool());
  // No resilience engaged -> the object is absent, not zero-filled.
  EXPECT_EQ(doc.find("resilience"), nullptr);
}

// ------------------------------------------------------- the spec grammar

TEST(RecordSpec, RecordKeyRoundTrips) {
  const EngineSpec s = parse_spec("async/cpu-par/sparse:record=100ms");
  EXPECT_DOUBLE_EQ(s.record_ms, 100.0);
  const std::string printed = format_spec(s);
  EXPECT_NE(printed.find("record=100ms"), std::string::npos);
  EXPECT_DOUBLE_EQ(parse_spec(printed).record_ms, 100.0);
}

TEST(RecordSpec, RecordOffIsDefaultAndOmittedFromCanonicalForm) {
  EXPECT_DOUBLE_EQ(parse_spec("async/cpu-par/sparse").record_ms, 0.0);
  const EngineSpec s = parse_spec("async/cpu-par/sparse:record=off");
  EXPECT_DOUBLE_EQ(s.record_ms, 0.0);
  EXPECT_EQ(format_spec(s).find("record="), std::string::npos);
}

TEST(RecordSpec, RejectsNonPositiveCadence) {
  EXPECT_THROW(parse_spec("async/cpu-par/sparse:record=0ms"), CheckError);
  EXPECT_THROW(parse_spec("async/cpu-par/sparse:record=-5ms"), CheckError);
  EXPECT_THROW(parse_spec("async/cpu-par/sparse:record=abc"), CheckError);
  EXPECT_THROW(parse_spec("async/cpu-par/sparse:record=nanms"), CheckError);
}

// ------------------------------------------- run_training integration

TEST(Attribution, ObservationDoesNotPerturbTrajectories) {
  Fixture f;
  const RunResult base = f.run("async/cpu-par/sparse", epochs(6));
  TrainOptions observed = epochs(6);
  observed.attribute = true;
  observed.record_ms = 1e-6;  // every epoch is due
  observed.status_path = testing::TempDir() + "/parsgd_obs_status.json";
  const RunResult r = f.run("async/cpu-par/sparse", observed);
  EXPECT_EQ(r.losses, base.losses);
  EXPECT_EQ(r.epoch_seconds, base.epoch_seconds);
  EXPECT_TRUE(base.attribution.empty());
  EXPECT_TRUE(base.flight.empty());
  ASSERT_EQ(r.attribution.size(), 6u);
  EXPECT_FALSE(r.flight.empty());
}

void expect_exact_sums(const RunResult& r, std::size_t n_epochs) {
  ASSERT_EQ(r.attribution.size(), n_epochs);
  for (const EpochAttribution& e : r.attribution) {
    const double m_sum = e.m_compute_s + e.m_net_s + e.m_stall_s;
    const double h_sum = e.h_compute_s + e.h_queue_s + e.h_ready_s +
                         e.h_stall_s + e.h_recovery_s + e.h_checkpoint_s;
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

TEST(Attribution, QueueWaitIsSharedOverTheEnginesPoolWorkers) {
  // Per-worker queue waits overlap in wall time, so the ledger divides
  // them by the worker count of the pool the engine runs on — here an
  // injected 2-worker pool, whatever the process-global pool's size.
  // On a loaded host the caller can drain every job before a worker
  // wakes (no wait is recorded then), so runs repeat until one waits.
  Fixture f;
  ThreadPool pool(2);
  for (int attempt = 0; attempt < 20; ++attempt) {
    EngineContext ctx = f.ctx;
    ctx.pool = &pool;
    ctx.telemetry = std::make_shared<telemetry::TelemetrySession>(
        telemetry::TelemetryMode::kMetrics);
    const std::unique_ptr<Engine> engine =
        make_engine(parse_spec("sync/cpu-par/sparse"), ctx);
    TrainOptions t = epochs(6);
    t.attribute = true;
    const RunResult r = run_training(*engine, f.lr, ctx.data, f.w0, 0.1f, t);
    ASSERT_EQ(r.attribution.size(), 6u);
    const double waited_s =
        ctx.telemetry->metrics().histogram("pool.queue_wait_ns").sum() *
        1e-9;
    if (waited_s == 0) continue;
    double ledger_s = 0;
    for (const EpochAttribution& e : r.attribution) ledger_s += e.h_queue_s;
    EXPECT_NEAR(ledger_s * 2.0, waited_s, 1e-9 * waited_s);
    return;
  }
  FAIL() << "no pool worker ever waited for a job";
}

TEST(Attribution, ClusterRunsExposeNetworkBuckets) {
  Fixture f;
  TrainOptions t = epochs(4);
  t.attribute = true;
  const RunResult ps = f.run("async/cluster/sparse:nodes=4", t);
  expect_exact_sums(ps, 4);
  const RunResult ar = f.run("sync/cluster/sparse:nodes=4", t);
  expect_exact_sums(ar, 4);
  // All-reduce puts the full collective on the critical path — the net
  // bucket must be visibly nonzero for a 4-node ring.
  double ar_net = 0;
  for (const EpochAttribution& e : ar.attribution) ar_net += e.m_net_s;
  EXPECT_GT(ar_net, 0.0);
}

// ------------------------------------------------- checkpoint persistence

TEST(Checkpoint, V2RoundTripsFlightWindow) {
  TrainCheckpoint ck;
  ck.next_epoch = 3;
  ck.w = {real_t(1), real_t(2)};
  ck.partial.initial_loss = 5;
  ck.partial.losses = {4, 3, 2};
  ck.partial.epoch_seconds = {1, 1, 1};
  for (int i = 0; i < 3; ++i) {
    FlightSample s;
    s.epoch = i;
    s.loss = 4.0 - i;
    s.t_s = 0.1 * i;
    ck.flight.push_back(s);
  }
  const std::string path = testing::TempDir() + "/parsgd_ck_flight.bin";
  save_checkpoint(path, ck);
  const TrainCheckpoint back = load_checkpoint(path);
  ASSERT_EQ(back.flight.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.flight[i].to_array(), ck.flight[i].to_array());
  }
  EXPECT_EQ(back.partial.losses, ck.partial.losses);
}

TEST(Checkpoint, V1FilesStillLoadWithEmptyWindow) {
  // Fabricate a v1 file from a v2 one: patch the version word down and
  // drop the appended frame-count tail. The reader must accept it and
  // come back with an empty flight window.
  TrainCheckpoint ck;
  ck.next_epoch = 2;
  ck.w = {real_t(7)};
  ck.partial.losses = {1, 2};
  ck.partial.epoch_seconds = {1, 1};
  const std::string path = testing::TempDir() + "/parsgd_ck_v1.bin";
  save_checkpoint(path, ck);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream buf;
    buf << is.rdbuf();
    bytes = buf.str();
  }
  const std::uint32_t v1 = 1;
  bytes.replace(4, 4, reinterpret_cast<const char*>(&v1), 4);
  bytes.resize(bytes.size() - 8);  // the (empty) u64 frame count
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  const TrainCheckpoint back = load_checkpoint(path);
  EXPECT_EQ(back.next_epoch, 2u);
  EXPECT_EQ(back.partial.losses, ck.partial.losses);
  EXPECT_TRUE(back.flight.empty());
}

TEST(Checkpoint, CrashPostMortemRecoversFlightWindow) {
  // crash@4 kills the run mid-flight; the checkpoint written after epoch
  // 3 must carry the recorder window, and resuming from it reproduces
  // the uninterrupted trajectory — recording on.
  Fixture f;
  const std::string ckpath = testing::TempDir() + "/parsgd_ck_crash.bin";
  TrainOptions crashing = epochs(8);
  crashing.attribute = true;
  crashing.record_ms = 1e-6;
  crashing.checkpoint_path = ckpath;
  EXPECT_THROW(
      f.run("async/cpu-par/sparse:faults=crash@4,record=100ms", crashing),
      CrashFault);

  const TrainCheckpoint ck = load_checkpoint(ckpath);
  EXPECT_EQ(ck.next_epoch, 4u);
  ASSERT_FALSE(ck.flight.empty());
  const FlightSample& last = ck.flight.back();
  EXPECT_DOUBLE_EQ(last.epoch, 4.0);
  EXPECT_DOUBLE_EQ(last.loss, ck.partial.losses.back());
  for (std::size_t i = 1; i < ck.flight.size(); ++i) {
    EXPECT_GE(ck.flight[i].t_s, ck.flight[i - 1].t_s);
    EXPECT_GE(ck.flight[i].epoch, ck.flight[i - 1].epoch);
  }

  const RunResult base = f.run("async/cpu-par/sparse", epochs(8));
  TrainOptions resuming = epochs(8);
  resuming.attribute = true;
  resuming.record_ms = 1e-6;
  resuming.resume = &ck;
  const RunResult resumed = f.run("async/cpu-par/sparse", resuming);
  EXPECT_EQ(resumed.losses, base.losses);
}

TEST(RunResult, FlightWindowOrderedAndFinalFramePresent) {
  Fixture f;
  TrainOptions t = epochs(5);
  t.record_ms = 1e-6;
  const RunResult r = f.run("sync/cpu-seq/sparse", t);
  ASSERT_FALSE(r.flight.empty());
  EXPECT_DOUBLE_EQ(r.flight.back().epoch, 5.0);
  for (std::size_t i = 1; i < r.flight.size(); ++i) {
    EXPECT_GE(r.flight[i].t_s, r.flight[i - 1].t_s);
  }
}

}  // namespace
}  // namespace parsgd
