// Tier-1 coverage of the run-report subsystem (DESIGN.md §13): JSON
// escaping and round-trip bit-stability, the three-axis math against a hand-computed
// trajectory, the regression comparator's tolerance gates, schema-version
// rejection, and the contract that reporting/heartbeat never perturbs a
// training trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "sgd/sync_engine.hpp"
#include "telemetry/session.hpp"

namespace parsgd {
namespace {

using report::Axes;
using report::CompareOptions;
using report::CompareResult;
using report::Entry;
using report::RunReport;

/// A fully-populated synthetic report exercising every serialized field.
RunReport sample_report() {
  RunReport r("unit");
  r.engine_spec = "sync/gpu/sparse";
  r.seed = 42;
  r.threads = 56;
  r.scale = 500;
  r.host_seconds = 1.25;

  report::DatasetInfo ds;
  ds.name = "w8a";
  ds.rows = 512;
  ds.paper_rows = 64700;
  ds.cols = 300;
  ds.nnz = 5966;
  ds.nnz_avg = 11.65234375;
  ds.sparsity_percent = 3.8833333333333333;
  r.datasets.push_back(ds);

  Entry e;
  e.label = "LR/w8a/sync/gpu";
  e.task = "LR";
  e.dataset = "w8a";
  e.spec = "sync/gpu/sparse";
  e.alpha = 0.1;
  e.axes.sec_per_epoch = 2.0;
  e.axes.epochs_to_10pct = 3;
  e.axes.epochs_to_1pct = 7;
  e.axes.ttc_10pct = 6.0;
  e.axes.ttc_1pct = 14.0;
  e.axes.modeled_total_seconds = 20.0;
  e.extras = {{"speedup", 4.5}, {"oddly.named-extra", 1.0 / 3.0}};
  e.series_loss = {0.6931, 0.52, 0.41};
  e.series_seconds = {2.0, 2.0, 2.0};
  e.resilience.recoveries = 2;
  e.resilience.checkpoints = 6;
  e.attribution.epochs = 3;
  e.attribution.m_compute_s = 4.5;
  e.attribution.m_net_s = 0.9;
  e.attribution.m_stall_s = 0.3;
  e.attribution.h_compute_s = 0.7;
  e.attribution.h_queue_s = 0.15;
  e.attribution.h_ready_s = 0.05;
  e.attribution.h_recovery_s = 0.02;
  e.attribution.h_checkpoint_s = 0.08;
  r.add_entry(e);

  Entry unreached;
  unreached.label = "LR/w8a/async/cpu-par";
  unreached.task = "LR";
  unreached.dataset = "w8a";
  unreached.alpha = 10.0;
  unreached.diverged = true;
  unreached.axes.sec_per_epoch = 0.5;  // the ε fields stay -1
  r.add_entry(unreached);

  telemetry::MetricSample m;
  m.name = "gpu.kernel_launches";
  m.kind = telemetry::MetricKind::kCounter;
  m.value = 17;
  r.metrics.push_back(m);
  telemetry::MetricSample h;
  h.name = "pool.queue_wait_ns";
  h.kind = telemetry::MetricKind::kHistogram;
  h.value = 123456;
  h.count = 10;
  h.p50 = 8;
  h.p90 = 64;
  h.p99 = 128;
  h.max = 130;
  r.metrics.push_back(h);

  report::KernelReport k;
  k.name = "gemv";
  k.launches = 17;
  k.sm_cycles = 1e6;
  k.mem_transactions = 4096;
  k.atomic_conflicts = 3;
  k.memory_cycles = 5e5;
  k.compute_cycles = 4e5;
  k.atomic_cycles = 300;
  k.divergence_cycles = 1e3;
  r.kernels.push_back(k);
  return r;
}

std::string dump(const RunReport& r) {
  std::ostringstream os;
  report::write_report(os, r);
  return os.str();
}

// ---- serialization -------------------------------------------------------

TEST(ReportJson, RoundTripIsBitStable) {
  const RunReport a = sample_report();
  const std::string first = dump(a);
  std::istringstream is(first);
  const RunReport b = report::read_report(is);
  // write(read(write(r))) == write(r): every field survives, numbers are
  // re-printed identically (max_digits10 formatting is injective on
  // doubles), member order is deterministic.
  EXPECT_EQ(dump(b), first);
  EXPECT_EQ(b.name, "unit");
  EXPECT_EQ(b.seed, 42u);
  EXPECT_EQ(b.entries.size(), 2u);
  ASSERT_NE(b.find("LR/w8a/sync/gpu"), nullptr);
  EXPECT_DOUBLE_EQ(b.find("LR/w8a/sync/gpu")->axes.ttc_1pct, 14.0);
  EXPECT_EQ(b.find("LR/w8a/async/cpu-par")->axes.epochs_to_1pct, -1);
  EXPECT_TRUE(b.find("LR/w8a/async/cpu-par")->diverged);
  ASSERT_EQ(b.metrics.size(), 2u);
  EXPECT_EQ(b.metrics[1].count, 10u);
  ASSERT_EQ(b.kernels.size(), 1u);
  EXPECT_DOUBLE_EQ(b.kernels[0].atomic_cycles, 300.0);
}

TEST(ReportJson, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(report::json_escape("plain"), "plain");
  EXPECT_EQ(report::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(report::json_escape("\t\r\x01"), "\\t\\r\\u0001");
}

TEST(ReportJson, UnobservedHistogramRoundTripsWithZeroQuantiles) {
  telemetry::TelemetrySession session(telemetry::TelemetryMode::kMetrics);
  session.metrics().histogram("pool.queue_wait_ns");  // never observed
  RunReport a("unit");
  a.add_metrics(&session);
  std::istringstream is(dump(a));
  const RunReport b = report::read_report(is);
  ASSERT_EQ(b.metrics.size(), 1u);
  const telemetry::MetricSample& h = b.metrics[0];
  EXPECT_EQ(h.name, "pool.queue_wait_ns");
  EXPECT_EQ(h.kind, telemetry::MetricKind::kHistogram);
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.value, 0.0);
  EXPECT_EQ(h.p50, 0.0);
  EXPECT_EQ(h.p90, 0.0);
  EXPECT_EQ(h.p99, 0.0);
  EXPECT_EQ(h.max, 0.0);
}

TEST(ReportJson, SeriesRoundTripsAndAbsenceStaysEmpty) {
  const RunReport a = sample_report();
  std::istringstream is(dump(a));
  const RunReport b = report::read_report(is);
  const Entry* with = b.find("LR/w8a/sync/gpu");
  ASSERT_NE(with, nullptr);
  EXPECT_EQ(with->series_loss, (std::vector<double>{0.6931, 0.52, 0.41}));
  EXPECT_EQ(with->series_seconds, (std::vector<double>{2.0, 2.0, 2.0}));
  // Entries without a series (and pre-series reports) read back empty:
  // the "series" object is simply absent from their JSON.
  const Entry* without = b.find("LR/w8a/async/cpu-par");
  ASSERT_NE(without, nullptr);
  EXPECT_TRUE(without->series_loss.empty());
  EXPECT_TRUE(without->series_seconds.empty());
  EXPECT_EQ(dump(a).find("\"series\""), dump(a).rfind("\"series\""));
}

TEST(ReportJson, ResilienceRoundTripsAndAbsenceStaysEmpty) {
  const RunReport a = sample_report();
  std::istringstream is(dump(a));
  const RunReport b = report::read_report(is);
  const Entry* with = b.find("LR/w8a/sync/gpu");
  ASSERT_NE(with, nullptr);
  EXPECT_TRUE(with->resilience.any());
  EXPECT_DOUBLE_EQ(with->resilience.recoveries, 2);
  EXPECT_DOUBLE_EQ(with->resilience.checkpoints, 6);
  // Entries without a slice (and pre-resilience reports) read back all
  // zero: the "resilience" object is simply absent from their JSON.
  const Entry* without = b.find("LR/w8a/async/cpu-par");
  ASSERT_NE(without, nullptr);
  EXPECT_FALSE(without->resilience.any());
  EXPECT_EQ(dump(a).find("\"resilience\""), dump(a).rfind("\"resilience\""));
}

TEST(ReportJson, ResilienceSliceFromOlderWritersStillLoads) {
  // Reports written while the full resilience mode existed carry extra
  // slice keys; they load, and only the surviving fields are kept.
  const RunReport a = sample_report();
  std::string text = dump(a);
  const std::size_t key = text.find("\"resilience\"");
  ASSERT_NE(key, std::string::npos);
  text.insert(text.find('{', key) + 1,
              "\"deadline_misses\": 5, \"backup_wins\": 4, "
              "\"ladder_down\": 1, \"ladder_up\": 1, \"quarantined\": 3, "
              "\"node_recoveries\": 1, "
              "\"final_level\": \"sequential\", ");
  std::istringstream is(text);
  const RunReport b = report::read_report(is);
  const Entry* with = b.find("LR/w8a/sync/gpu");
  ASSERT_NE(with, nullptr);
  EXPECT_DOUBLE_EQ(with->resilience.recoveries, 2);
  EXPECT_DOUBLE_EQ(with->resilience.checkpoints, 6);
  EXPECT_EQ(dump(b), dump(a));
}

TEST(ReportJson, ClusterSliceFromOlderWritersIsIgnored) {
  // Reports written while the simulated cluster existed carry a per-entry
  // "cluster" object; it loads and is dropped (additive-field policy).
  const RunReport a = sample_report();
  std::string text = dump(a);
  const std::size_t entry = text.find("\"label\": \"LR/w8a/sync/gpu\"");
  ASSERT_NE(entry, std::string::npos);
  text.insert(entry,
              "\"cluster\": {\"nodes\": 4, \"sync\": \"ps\", "
              "\"link_latency_us\": 10, \"link_bandwidth_gbps\": 10, "
              "\"net_messages\": 2048, \"net_bytes\": 5e6, "
              "\"net_seconds\": 0.125, \"stale_units\": 300}, ");
  std::istringstream is(text);
  const RunReport b = report::read_report(is);
  EXPECT_EQ(dump(b), dump(a));
}

TEST(ReportJson, RejectsForeignSchemaVersion) {
  RunReport r = sample_report();
  r.schema_version = report::kSchemaVersion + 1;
  std::istringstream is(dump(r));
  EXPECT_THROW(report::read_report(is), CheckError);
}

TEST(ReportJson, RejectsMalformedDocument) {
  std::istringstream is("{\"schema_version\": 1, \"name\": ");
  EXPECT_THROW(report::read_report(is), CheckError);
}

/// `text` with the number after the first `"key": ` replaced by `value`.
std::string forge(std::string text, const std::string& key,
                  const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = text.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return text;
  const std::size_t begin = at + tag.size();
  const std::size_t end = text.find_first_of(",\n}", begin);
  return text.replace(begin, end - begin, value);
}

TEST(ReportJson, ForgedNumbersThrowCheckErrorNamingTheKey) {
  // Integer fields convert through a range check, and a number token that
  // overflows a double is a parse error: a forged report throws, it never
  // reaches an out-of-range cast.
  const std::string text = dump(sample_report());
  for (const auto& [key, value] : {
           std::pair{"schema_version", "1.5"},
           std::pair{"rows", "-1"},
           std::pair{"threads", "1e10"},
           std::pair{"seed", "2.5"},
           std::pair{"nnz", "1e999"},
           std::pair{"host_seconds", "-1e999"},
           std::pair{"paper_rows", "18446744073709551616"},  // 2^64
           std::pair{"count", "-3"},
       }) {
    std::istringstream is(forge(text, key, value));
    try {
      report::read_report(is);
      ADD_FAILURE() << key << " = " << value << " loaded";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(ReportJson, SeededMutantsReadOrThrowCheckError) {
  // Seeded mutation run over read_report: byte flips, deletes,
  // duplicates, truncations, and digit runs overwritten with -1, 1e999 or
  // 2.5, of a written report. Every mutant either reads or throws
  // CheckError with a message; anything else (another exception, a
  // crash, a sanitizer report) is a reader bug.
  const std::string text = dump(sample_report());
  const char* const numbers[] = {"-1", "1e999", "2.5"};
  Rng rng(0x4E9047);
  std::size_t loaded = 0, rejected = 0;
  constexpr int kMutants = 2400;
  for (int m = 0; m < kMutants; ++m) {
    std::string bytes = text;
    const int edits = 1 + static_cast<int>(rng.uniform_index(3));
    for (int k = 0; k < edits && !bytes.empty(); ++k) {
      const std::size_t at = rng.uniform_index(bytes.size());
      switch (rng.uniform_index(5)) {
        case 0:  // flip one bit
          bytes[at] = static_cast<char>(
              bytes[at] ^ (1 << rng.uniform_index(8)));
          break;
        case 1: bytes.erase(at, 1); break;
        case 2: bytes.insert(at, 1, bytes[at]); break;
        case 3: bytes.resize(at); break;
        default: {  // the next digit run
          const std::size_t begin = bytes.find_first_of("0123456789", at);
          if (begin == std::string::npos) break;
          const std::size_t end = std::min(
              bytes.find_first_not_of("0123456789.eE+-", begin),
              bytes.size());
          bytes.replace(begin, end - begin, numbers[rng.uniform_index(3)]);
        }
      }
    }
    std::istringstream is(bytes);
    try {
      report::read_report(is);
      ++loaded;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()), "") << "mutant " << m;
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, static_cast<std::size_t>(kMutants));
  // Both outcomes occur: a flipped digit in a double field still reads.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ReportJson, EmitWritesLoadableFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "parsgd_report_test";
  std::filesystem::remove_all(dir);
  const RunReport r = sample_report();
  const std::string path = report::emit(r, dir.string());
  EXPECT_EQ(std::filesystem::path(path).filename(), "BENCH_unit.json");
  const RunReport back = report::load_report(path);
  EXPECT_EQ(dump(back), dump(r));
  std::filesystem::remove_all(dir);
}

TEST(ReportJson, EmitWithoutDirNeverWritesBenchResults) {
  // An empty dir resolves to $PARSGD_REPORT_DIR, else the working
  // directory, even where ./bench/results exists: the committed baselines
  // are only written through an explicit --report-dir.
  namespace fs = std::filesystem;
  const fs::path cwd = fs::temp_directory_path() / "parsgd_emit_cwd_test";
  fs::remove_all(cwd);
  fs::create_directories(cwd / "bench" / "results");
  // Puts the working directory and $PARSGD_REPORT_DIR back even when emit
  // throws, so the rest of the binary runs where it started.
  struct Restore {
    fs::path cwd = fs::current_path();
    bool had_env = std::getenv("PARSGD_REPORT_DIR") != nullptr;
    std::string old_env = had_env ? std::getenv("PARSGD_REPORT_DIR") : "";
    ~Restore() {
      fs::current_path(cwd);
      if (had_env) setenv("PARSGD_REPORT_DIR", old_env.c_str(), 1);
    }
  };
  std::string path;
  {
    const Restore restore;
    unsetenv("PARSGD_REPORT_DIR");
    fs::current_path(cwd);
    path = report::emit(sample_report());
  }
  EXPECT_EQ(fs::path(path), fs::path(".") / "BENCH_unit.json");
  EXPECT_TRUE(fs::exists(cwd / "BENCH_unit.json"));
  EXPECT_TRUE(fs::is_empty(cwd / "bench" / "results"));
  fs::remove_all(cwd);
}

// ---- three-axis math -----------------------------------------------------

TEST(ReportAxes, MatchesHandComputedTrajectory) {
  // Loss 100 -> 12 -> 4 -> 2 -> 2, 2.0 modeled seconds per epoch, optimum
  // 2.0. Within 10% means <= 2.2 (epoch 3); within 1% means <= 2.02
  // (epoch 3 as well — loss 2 IS the optimum).
  RunResult run;
  run.initial_loss = 100;
  run.losses = {12, 4, 2, 2};
  run.epoch_seconds = {2, 2, 2, 2};
  const Axes a = Axes::from(run, 2.0);
  EXPECT_DOUBLE_EQ(a.sec_per_epoch, 2.0);
  EXPECT_DOUBLE_EQ(a.modeled_total_seconds, 8.0);
  EXPECT_DOUBLE_EQ(a.epochs_to_10pct, 3);
  EXPECT_DOUBLE_EQ(a.epochs_to_1pct, 3);
  EXPECT_DOUBLE_EQ(a.ttc_10pct, 6.0);
  EXPECT_DOUBLE_EQ(a.ttc_1pct, 6.0);
}

TEST(ReportAxes, UnreachedLevelsStayNegative) {
  RunResult run;
  run.initial_loss = 100;
  run.losses = {50, 40};
  run.epoch_seconds = {1, 1};
  const Axes a = Axes::from(run, 2.0);  // never gets near the optimum
  EXPECT_DOUBLE_EQ(a.sec_per_epoch, 1.0);
  EXPECT_EQ(a.epochs_to_10pct, -1);
  EXPECT_EQ(a.ttc_1pct, -1);
}

TEST(ReportAxes, EmptyRunIsAllSentinels) {
  const Axes a = Axes::from(RunResult{}, 1.0);
  EXPECT_EQ(a.sec_per_epoch, -1);
  EXPECT_EQ(a.modeled_total_seconds, -1);
}

// ---- regression comparator -----------------------------------------------

TEST(ReportCompare, SelfDiffIsClean) {
  const RunReport r = sample_report();
  CompareOptions opts;
  opts.require_same_sha = true;
  const CompareResult res = report::compare_reports(r, r, opts);
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.regressions.empty());
}

TEST(ReportCompare, SeriesIsIgnoredEntirely) {
  // The per-epoch series is plotting provenance, not a regression axis:
  // arbitrarily different (or missing) series never trip the gate.
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].series_loss = {9.0, 8.0, 7.0, 6.0};
  cur.entries[0].series_seconds.clear();
  cur.entries[1].series_loss = {1.0};
  EXPECT_TRUE(report::compare_reports(base, cur).ok());
}

TEST(ReportCompare, ResilienceIsIgnoredEntirely) {
  // The resilience slice is provenance, not a regression axis: wildly
  // different recovery behavior between two runs never gates.
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].resilience = {};
  cur.entries[1].resilience.recoveries = 99;
  cur.entries[1].resilience.checkpoints = 42;
  EXPECT_TRUE(report::compare_reports(base, cur).ok());
}

TEST(ReportCompare, FlagsInjectedSecPerEpochRegression) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  // 20% slower per epoch: past the 10% hardware-efficiency tolerance.
  cur.entries[0].axes.sec_per_epoch *= 1.20;
  const CompareResult res = report::compare_reports(base, cur);
  ASSERT_FALSE(res.ok());
  ASSERT_EQ(res.regressions.size(), 1u);
  EXPECT_EQ(res.regressions[0].axis, "sec_per_epoch");
  EXPECT_EQ(res.regressions[0].label, "LR/w8a/sync/gpu");
  EXPECT_NEAR(res.regressions[0].rel, 0.20, 1e-12);
}

TEST(ReportCompare, AcceptsWithinToleranceNoise) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].axes.sec_per_epoch *= 1.05;     // +5% < 10% tol
  cur.entries[0].axes.epochs_to_1pct *= 1.08;    // +8% < 10% tol
  cur.entries[0].axes.ttc_1pct *= 1.12;          // +12% < 15% tol
  cur.entries[0].extras[0].second *= 1.20;       // ±20% < 25% tol
  EXPECT_TRUE(report::compare_reports(base, cur).ok());
}

TEST(ReportCompare, ImprovementsNeverRegress) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].axes.sec_per_epoch *= 0.5;  // 2x faster
  cur.entries[0].axes.epochs_to_1pct = 2;
  cur.entries[0].axes.ttc_1pct = 4;
  const CompareResult res = report::compare_reports(base, cur);
  EXPECT_TRUE(res.ok());
  EXPECT_FALSE(res.notes.empty());  // improvements are reported as notes
}

TEST(ReportCompare, ReachedBecomingUnreachedRegresses) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].axes.epochs_to_1pct = -1;
  cur.entries[0].axes.ttc_1pct = -1;
  const CompareResult res = report::compare_reports(base, cur);
  EXPECT_FALSE(res.ok());
}

TEST(ReportCompare, DisappearedEntryRegresses) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries.erase(cur.entries.begin());
  const CompareResult res = report::compare_reports(base, cur);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.regressions[0].axis, "entry disappeared");
}

TEST(ReportCompare, FreshDivergenceRegresses) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].diverged = true;
  EXPECT_FALSE(report::compare_reports(base, cur).ok());
}

TEST(ReportCompare, ShaMismatchOnlyWhenRequired) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.build.git_sha = "deadbeef0000";
  EXPECT_TRUE(report::compare_reports(base, cur).ok());
  CompareOptions strict;
  strict.require_same_sha = true;
  EXPECT_FALSE(report::compare_reports(base, cur, strict).ok());
}

TEST(ReportCompare, DifferentBenchesAreNotComparable) {
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.name = "other_bench";
  EXPECT_THROW(report::compare_reports(base, cur), CheckError);
}

// ---- attribution ---------------------------------------------------------

TEST(ReportAttribution, SliceRoundTripsAndAbsenceStaysEmpty) {
  const RunReport base = sample_report();
  std::istringstream is(dump(base));
  const RunReport back = report::read_report(is);
  const report::AttributionSlice& a = back.entries[0].attribution;
  ASSERT_TRUE(a.any());
  EXPECT_EQ(a.epochs, 3.0);
  EXPECT_EQ(a.m_compute_s, 4.5);
  EXPECT_EQ(a.m_net_s, 0.9);
  EXPECT_EQ(a.m_stall_s, 0.3);
  EXPECT_EQ(a.h_compute_s, 0.7);
  EXPECT_EQ(a.h_queue_s, 0.15);
  EXPECT_EQ(a.h_ready_s, 0.05);
  EXPECT_EQ(a.h_recovery_s, 0.02);
  EXPECT_EQ(a.h_checkpoint_s, 0.08);
  EXPECT_NEAR(a.modeled_total(), 5.7, 1e-12);
  EXPECT_NEAR(a.host_total(), 1.0, 1e-12);
  // The unreached entry carries no ledger; the slice stays absent.
  EXPECT_FALSE(back.entries[1].attribution.any());
}

TEST(ReportAttribution, HostStallFromOlderWritersIsIgnored) {
  // Reports written while the host split had an injected-delay bucket
  // carry host.stall_s; it loads and is dropped (additive-field policy).
  const RunReport a = sample_report();
  std::string text = dump(a);
  const std::size_t host = text.find("\"host\"");
  ASSERT_NE(host, std::string::npos);
  text.insert(text.find('{', host) + 1, "\"stall_s\": 0.1, ");
  std::istringstream is(text);
  const RunReport b = report::read_report(is);
  EXPECT_NEAR(b.entries[0].attribution.host_total(), 1.0, 1e-12);
  EXPECT_EQ(dump(b), dump(a));
}

TEST(ReportAttribution, CompareIgnoresSliceEntirely) {
  // Attribution explains regressions; it never gates on its own.
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].attribution = {};
  cur.entries[1].attribution.epochs = 7;
  cur.entries[1].attribution.m_stall_s = 99.0;
  EXPECT_TRUE(report::compare_reports(base, cur).ok());
}

TEST(ReportAttribution, DiffNamesDominantBucketPinned) {
  // Hand-computed: per-epoch means over 4 epochs.
  //   baseline  compute 1.00  net 0.20  stall 0.05
  //   current   compute 1.05  net 0.20  stall 0.35
  // deltas: compute +0.05, net +0.00, stall +0.30 -> dominant 'stall',
  // total +0.35 s/epoch.
  Entry base, cur;
  base.attribution.epochs = 4;
  base.attribution.m_compute_s = 4.0;
  base.attribution.m_net_s = 0.8;
  base.attribution.m_stall_s = 0.2;
  cur.attribution.epochs = 4;
  cur.attribution.m_compute_s = 4.2;
  cur.attribution.m_net_s = 0.8;
  cur.attribution.m_stall_s = 1.4;
  const report::AttributionDiff d = report::diff_attribution(base, cur);
  ASSERT_TRUE(d.available);
  EXPECT_EQ(d.dominant, "stall");
  EXPECT_NEAR(d.total_delta_s, 0.35, 1e-12);
  ASSERT_EQ(d.buckets.size(), 3u);
  EXPECT_EQ(d.buckets[0].bucket, "compute");
  EXPECT_NEAR(d.buckets[0].delta_s, 0.05, 1e-12);
  EXPECT_EQ(d.buckets[1].bucket, "net");
  EXPECT_NEAR(d.buckets[1].delta_s, 0.0, 1e-12);
  EXPECT_EQ(d.buckets[2].bucket, "stall");
  EXPECT_NEAR(d.buckets[2].delta_s, 0.3, 1e-12);
  EXPECT_EQ(d.describe(),
            "attribution: dominant bucket 'stall' +0.350s/epoch total "
            "(compute +0.050, net +0.000, stall +0.300)");
  // Self-diff: no bucket grew; ties break to the first (compute).
  EXPECT_EQ(report::diff_attribution(base, base).dominant, "compute");
}

TEST(ReportAttribution, DiffUnavailableWithoutLedger) {
  Entry with, without;
  with.attribution.epochs = 2;
  with.attribution.m_compute_s = 1.0;
  const report::AttributionDiff d = report::diff_attribution(with, without);
  EXPECT_FALSE(d.available);
  EXPECT_EQ(d.describe(),
            "attribution: no ledger on one or both sides "
            "(rerun with --attribute)");
}

TEST(ReportAttribution, NotesExplainInjectedStallRegression) {
  // A stall slowdown: sec/epoch regresses 20% and the current
  // ledger's modeled stall bucket carries the growth. --attribute must
  // name 'stall' as the dominant bucket in the note for that label.
  const RunReport base = sample_report();
  RunReport cur = sample_report();
  cur.entries[0].axes.sec_per_epoch *= 1.20;
  cur.entries[0].attribution.m_stall_s = 1.5;  // mean 0.5 vs 0.1 baseline
  CompareResult res = report::compare_reports(base, cur);
  ASSERT_FALSE(res.ok());
  const std::size_t before = res.notes.size();
  report::attribute_regressions(base, cur, res);
  ASSERT_EQ(res.notes.size(), before + 1);
  const std::string& note = res.notes.back();
  EXPECT_NE(note.find("[LR/w8a/sync/gpu] sec_per_epoch:"), std::string::npos);
  EXPECT_NE(note.find("dominant bucket 'stall'"), std::string::npos);
}

// ---- observation does not perturb the experiment -------------------------

TEST(ReportTraining, HeartbeatAndReportingPreserveTrajectory) {
  Dataset ds = generate_dataset(
      "w8a", GeneratorOptions{.seed = 7, .scale = 500.0});
  LogisticRegression lr(ds.d());
  TrainData data;
  data.sparse = &ds.x;
  data.y = ds.y;
  const ScaleContext scale = make_scale_context(ds, lr, false);
  const auto w0 = lr.init_params(7);

  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);  // heartbeat fires every epoch; mute it
  auto losses = [&](double heartbeat, bool telemetry) {
    SyncEngine e(lr, data, scale, SyncEngineOptions{});
    TrainOptions t;
    t.max_epochs = 8;
    t.heartbeat_seconds = heartbeat;
    if (telemetry) {
      e.set_telemetry(std::make_shared<telemetry::TelemetrySession>(
          telemetry::TelemetryMode::kMetrics));
    }
    return run_training(e, lr, data, w0, real_t(0.5), t).losses;
  };
  const auto plain = losses(0, false);
  EXPECT_EQ(plain, losses(1e-9, false));  // heartbeat every epoch
  EXPECT_EQ(plain, losses(1e-9, true));   // + metrics collection
  set_log_level(saved);

  // And the report built from a run is pure observation too: identical
  // runs produce byte-identical entry serializations.
  SyncEngine e(lr, data, scale, SyncEngineOptions{});
  TrainOptions t;
  t.max_epochs = 8;
  const RunResult run = run_training(e, lr, data, w0, real_t(0.5), t);
  EXPECT_EQ(run.losses, plain);
}

}  // namespace
}  // namespace parsgd
