// Tier-1 coverage of the telemetry subsystem (DESIGN.md §12): instrument
// aggregation under real pool concurrency, quantile semantics, exporter
// well-formedness, the telemetry= spec grammar, and the core contract
// that telemetry never perturbs a training trajectory.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "report/chrome_trace.hpp"
#include "report/report.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"
#include "telemetry/session.hpp"

namespace parsgd {
namespace {

using telemetry::TelemetryMode;
using telemetry::TelemetrySession;

// ---- minimal JSON well-formedness checker --------------------------------
// Just enough of RFC 8259 to prove the Chrome trace writer emits a
// machine-parseable document (objects, arrays, strings with escapes,
// numbers, literals). Returns false instead of throwing.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

struct Fixture {
  Dataset ds;
  LogisticRegression lr;
  EngineContext ctx;
  std::vector<real_t> w0;

  explicit Fixture(const char* name)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 5, .scale = 500.0})),
        lr(ds.d()) {
    ctx = make_engine_context(ds, lr, Layout::kSparse);
    w0 = lr.init_params(5);
  }
};

// ---- metrics --------------------------------------------------------------

TEST(TelemetryMetrics, CounterAggregatesAcrossPoolSizes) {
  constexpr std::size_t kN = 1000;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    TelemetrySession session(TelemetryMode::kMetrics);
    telemetry::Counter& c = session.metrics().counter("test.items");
    ThreadPool pool(threads);
    PoolTelemetryGuard guard(pool, &session);
    for (int job = 0; job < 3; ++job) {
      pool.parallel_for(kN, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) c.inc();
      });
    }
    EXPECT_DOUBLE_EQ(c.value(), 3.0 * kN) << threads << " threads";

    // The pool's own instruments saw every job and chunk.
    const telemetry::MetricsSnapshot snap = session.metrics().snapshot();
    const telemetry::MetricSample* jobs = snap.find("pool.jobs");
    ASSERT_NE(jobs, nullptr);
    EXPECT_DOUBLE_EQ(jobs->value, 3.0);
    const telemetry::MetricSample* chunks = snap.find("pool.chunks");
    ASSERT_NE(chunks, nullptr);
    EXPECT_GE(chunks->value, 3.0);  // at least one chunk per job
    ASSERT_NE(snap.find("pool.queue_wait_ns"), nullptr);
  }
}

TEST(TelemetryMetrics, MetricLogDefersUpdatesAndReplaysInOrder) {
  TelemetrySession session(TelemetryMode::kMetrics);
  telemetry::MetricsRegistry& reg = session.metrics();
  telemetry::Counter& c = reg.counter("test.sum");
  telemetry::Gauge& g = reg.gauge("test.level");
  telemetry::Histogram& h = reg.histogram("test.sizes");
  telemetry::MetricLog outer, inner;
  {
    const telemetry::MetricLog::Scope scope(outer);
    c.add(1e16);
    g.set(2.0);
    {
      const telemetry::MetricLog::Scope nested(inner);
      h.record(8.0);
    }
    c.add(1.0);  // the outer log is back in place
    g.set(3.0);
  }
  // Nothing applied yet.
  EXPECT_EQ(c.value(), 0.0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  c.add(1.0);  // applied directly: no log installed here
  outer.replay();
  inner.replay();
  // In recorded order each 1.0 meets 1e16 alone and rounds away (half to
  // even); had the two ones met first, the sum would read 1e16 + 2.
  EXPECT_EQ(c.value(), 1e16);
  EXPECT_EQ(g.value(), 3.0);  // last set wins
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 8.0);
}

TEST(TelemetryMetrics, HistogramQuantilesInterpolateInTerminalBucket) {
  telemetry::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(3.0);  // bucket [2, 4)
  h.record(1000.0);                             // bucket [512, 1024)
  EXPECT_EQ(h.count(), 101u);
  EXPECT_DOUBLE_EQ(h.sum(), 300.0 + 1000.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 1000.0);
  // Hand-computed: q(0.5) -> rank ceil(0.5*101) = 51 of 100 inside [2, 4)
  // -> 2 + (51/100)*2 = 3.02; q(0.99) -> rank 100 -> 2 + (100/100)*2 = 4;
  // q(1.0) -> rank 101, the singleton terminal bucket [512, 1024) ->
  // 512 + (1/1)*512 = 1024.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.02);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1024.0);
}

TEST(TelemetryMetrics, HistogramQuantileInterpolationHandComputed) {
  // Four samples in bucket [4, 8): ranks 1..4 map to evenly spaced
  // positions 4 + (k/4)*4 = 5, 6, 7, 8.
  telemetry::Histogram h;
  for (int i = 0; i < 4; ++i) h.record(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 6.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
  // A singleton in the zero bucket [0, 1) interpolates to its upper edge.
  telemetry::Histogram z;
  z.record(0.5);
  EXPECT_DOUBLE_EQ(z.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(z.quantile(1.0), 1.0);
}

TEST(TelemetryMetrics, RegistryKindMismatchThrows) {
  TelemetrySession session(TelemetryMode::kMetrics);
  session.metrics().counter("x");
  EXPECT_THROW(session.metrics().gauge("x"), CheckError);
}

// ---- exporters ------------------------------------------------------------

TEST(TelemetryExport, ChromeTraceParsesBack) {
  TelemetrySession session(TelemetryMode::kTrace);
  {
    telemetry::TraceSpan span(&session.trace(), "epoch");
    span.arg("epoch", 0.0);
    span.arg("loss", 0.5);
    ThreadPool pool(4);
    PoolTelemetryGuard guard(pool, &session);
    pool.parallel_for(256, [](std::size_t, std::size_t) {});
  }
  session.trace().instant("watchdog.rollback", {{"epoch", 3.0}});

  std::ostringstream os;
  report::write_chrome_trace(os, session);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Per-worker chunk spans, the epoch lane and the instant all survive.
  EXPECT_NE(json.find("\"chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("watchdog.rollback"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

// ---- spec grammar ---------------------------------------------------------

TEST(TelemetrySpec, GrammarRoundTripsTelemetryKey) {
  for (const char* text : {
           "async/cpu-par/sparse:telemetry=metrics",
           "async/cpu-par/sparse:telemetry=trace",
           "sync/gpu/dense:batch=64,calib=mlp,telemetry=trace",
           "async/cpu-seq/sparse:threads=8,telemetry=metrics",
       }) {
    EXPECT_EQ(format_spec(parse_spec(text)), text);
  }
  EXPECT_EQ(parse_spec("sync/cpu-seq/sparse:telemetry=trace").telemetry,
            TelemetryMode::kTrace);
  // off is the default and stays implicit in canonical text.
  EXPECT_EQ(parse_spec("sync/cpu-seq/sparse:telemetry=off").telemetry,
            TelemetryMode::kOff);
  EXPECT_EQ(format_spec(parse_spec("sync/cpu-seq/sparse:telemetry=off")),
            "sync/cpu-seq/sparse");
}

TEST(TelemetrySpec, MistypedKeysFailLoudlyWithOffendingToken) {
  struct Case {
    const char* text;
    const char* token;  ///< must appear in the reported error
  };
  for (const Case& c : {
           Case{"sync/cpu-par/sparse:telemetrie=trace", "telemetrie"},
           Case{"sync/cpu-par/sparse:telemetry=verbose",
                "telemetry=verbose"},
           Case{"sync/tpu/sparse", "tpu"},
           Case{"sync/cpu-par/sparse:batch=abc", "batch=abc"},
       }) {
    std::string error;
    EXPECT_FALSE(try_parse_spec(c.text, &error).has_value()) << c.text;
    EXPECT_NE(error.find(c.token), std::string::npos)
        << c.text << " -> " << error;
  }
}

// ---- trajectory invariance ------------------------------------------------

TEST(TelemetryTrajectory, ModesAreBitIdentical) {
  Fixture f("w8a");
  auto losses = [&](const char* text,
                    std::shared_ptr<TelemetrySession> session) {
    EngineContext ctx = f.ctx;
    ctx.telemetry = std::move(session);
    const std::unique_ptr<Engine> engine = make_engine(parse_spec(text),
                                                       ctx);
    TrainOptions t;
    t.max_epochs = 4;
    return run_training(*engine, f.lr, ctx.data, f.w0, real_t(0.5), t)
        .losses;
  };
  for (const char* text : {"sync/cpu-par/sparse", "async/cpu-par/sparse",
                           "async/gpu/sparse"}) {
    const std::vector<double> plain = losses(text, nullptr);
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(plain,
              losses(text, std::make_shared<TelemetrySession>(
                               TelemetryMode::kOff)))
        << text;
    EXPECT_EQ(plain,
              losses(text, std::make_shared<TelemetrySession>(
                               TelemetryMode::kTrace)))
        << text;
  }
}

TEST(TelemetryTrajectory, EngineRunsFeedTheRegistry) {
  Fixture f("w8a");
  auto session = std::make_shared<TelemetrySession>(TelemetryMode::kMetrics);
  EngineContext ctx = f.ctx;
  ctx.telemetry = session;
  const std::unique_ptr<Engine> engine =
      make_engine(parse_spec("async/cpu-par/sparse"), ctx);
  TrainOptions t;
  t.max_epochs = 3;
  run_training(*engine, f.lr, ctx.data, f.w0, real_t(0.5), t);

  const telemetry::MetricsSnapshot snap = session->metrics().snapshot();
  const telemetry::MetricSample* updates = snap.find("async.updates");
  ASSERT_NE(updates, nullptr);
  EXPECT_GT(updates->value, 0.0);
  ASSERT_NE(snap.find("async.write_conflicts"), nullptr);
}

// ---- exporter concurrency -------------------------------------------------

TEST(TelemetryExport, ExportersSafeUnderConcurrentWriters) {
  // Writers hammer every instrument kind and the trace while the main
  // thread snapshots and renders both channels mid-flight: the Chrome
  // trace and a RunReport metrics section. Values are racy lower bounds
  // by design; the contract under test is that export never tears or
  // crashes (run under TSan via scripts/check.sh).
  TelemetrySession session(TelemetryMode::kTrace);
  telemetry::Counter& c = session.metrics().counter("stress.count");
  telemetry::Gauge& g = session.metrics().gauge("stress.gauge");
  telemetry::Histogram& h = session.metrics().histogram("stress.hist");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t i = 0;
      do {  // at least one write per thread even if stop wins the race
        c.inc();
        g.set(static_cast<double>(t));
        h.record(static_cast<double>(i % 1024));
        if (i < 256) session.trace().instant("stress.mark");
        ++i;
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::ostringstream trace;
    report::write_chrome_trace(trace, session);
    EXPECT_TRUE(JsonChecker(trace.str()).valid());
    report::RunReport rep("stress");
    rep.add_metrics(&session);
    std::ostringstream doc;
    report::write_report(doc, rep);
    EXPECT_NE(doc.str().find("\"stress.count\""), std::string::npos);
    EXPECT_NE(doc.str().find("\"stress.hist\""), std::string::npos);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  // Writers quiesced: the final snapshot is exact and well-formed.
  const telemetry::MetricsSnapshot snap = session.snapshot();
  const telemetry::MetricSample* count = snap.find("stress.count");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->value, 0.0);
}

TEST(TelemetryExport, DroppedSpansSurfaceInSnapshotAndTrace) {
  // A capped recorder drops spans silently at record time; the counter
  // must surface in the metrics snapshot and as a trailing instant event
  // in the Chrome trace so no exporter hides the loss.
  TelemetrySession session(TelemetryMode::kTrace);
  const std::size_t cap = std::size_t{1} << 16;
  for (std::size_t i = 0; i < cap + 5; ++i) {
    session.trace().instant("spam");
  }
  EXPECT_EQ(session.trace().dropped(), 5u);
  const telemetry::MetricsSnapshot snap = session.snapshot();
  const telemetry::MetricSample* dropped = snap.find("trace.dropped_spans");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->kind, telemetry::MetricKind::kCounter);
  EXPECT_EQ(dropped->value, 5.0);

  std::ostringstream os;
  report::write_chrome_trace(os, session);
  EXPECT_NE(os.str().find("\"trace.dropped_spans\""), std::string::npos);
  EXPECT_NE(os.str().find("\"dropped\":5"), std::string::npos);
}

TEST(TelemetryExport, CleanSessionOmitsDroppedSpansSample) {
  TelemetrySession session(TelemetryMode::kTrace);
  session.trace().instant("one");
  EXPECT_EQ(session.snapshot().find("trace.dropped_spans"), nullptr);
  std::ostringstream os;
  report::write_chrome_trace(os, session);
  EXPECT_EQ(os.str().find("trace.dropped_spans"), std::string::npos);
}

}  // namespace
}  // namespace parsgd
