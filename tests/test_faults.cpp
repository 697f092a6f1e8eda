// Fault injection + resilient training runtime (DESIGN.md §11): the spec
// fault grammar, the injector hooks, the divergence watchdog
// (resilience=watchdog), and checkpoint/resume. The load-bearing
// guarantees tested here:
//   * an empty plan / disabled watchdog leaves trajectories bit-identical,
//   * an injected fault is detected at the exact epoch it lands,
//   * crash + checkpoint + resume reproduces the uninterrupted run exactly,
//     on every cadence and on the task-graph step path,
//   * a corrupt or forged checkpoint file throws CheckError, never
//     allocates from an unchecked count,
//   * a fully-diverged step grid degrades a Study sweep, never aborts it.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/study.hpp"
#include "data/generator.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/checkpoint.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"

namespace parsgd {
namespace {

struct Fixture {
  Dataset ds;
  LogisticRegression lr;
  EngineContext ctx;
  std::vector<real_t> w0;

  explicit Fixture(const char* name = "w8a", double gen_scale = 500.0)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 5, .scale = gen_scale})),
        lr(ds.d()) {
    ctx = make_engine_context(ds, lr, Layout::kSparse);
    w0 = lr.init_params(5);
  }

  /// One fresh engine per run: fault state and simulator state never leak
  /// between the runs a test compares.
  RunResult run(const std::string& spec_text, real_t alpha,
                const TrainOptions& opts,
                FaultCounters* counters = nullptr) const {
    const std::unique_ptr<Engine> engine =
        make_engine(parse_spec(spec_text), ctx);
    const RunResult r =
        run_training(*engine, lr, ctx.data, w0, alpha, opts);
    if (counters != nullptr) *counters = engine->fault_injector().counters();
    return r;
  }
};

TrainOptions epochs(std::size_t n) {
  TrainOptions t;
  t.max_epochs = n;
  return t;
}

TrainOptions watchdog_epochs(std::size_t n) {
  TrainOptions t = epochs(n);
  t.watchdog = true;
  return t;
}

// ---------------------------------------------------------------- grammar

TEST(FaultSpec, ParsesAllKeys) {
  const EngineSpec s = parse_spec(
      "async/cpu-par/sparse:faults=nan@120+crash@9");
  EXPECT_EQ(s.faults.corrupt, FaultPlan::Corrupt::kNan);
  EXPECT_EQ(s.faults.corrupt_step, 120u);
  EXPECT_EQ(s.faults.crash_epoch, 9u);
  EXPECT_TRUE(s.faults.any());
}

TEST(FaultSpec, FormatRoundTrips) {
  for (const char* text : {
           "async/cpu-par/sparse:faults=nan@120",
           "sync/cpu-seq/sparse:batch=32,faults=crash@5+inf@3",
           "async/cpu-seq/sparse:faults=inf@9",
           "async/gpu/sparse:faults=crash@6+nan@4",
           "sync/cpu-par/sparse:batch=64,faults=crash@5",
       }) {
    const EngineSpec s = parse_spec(text);
    EXPECT_EQ(parse_spec(format_spec(s)), s) << text << " via "
                                             << format_spec(s);
  }
  // A plan-free spec formats with no fault fragments at all.
  EXPECT_EQ(format_spec(parse_spec("async/cpu-par/sparse")),
            "async/cpu-par/sparse");
}

TEST(FaultSpec, RejectsMalformedPlans) {
  for (const char* text : {
           "async/cpu-par/sparse:faults=nan",         // missing @step
           "async/cpu-par/sparse:faults=nan@x",       // bad step
           "async/cpu-par/sparse:faults=bogus@3",     // unknown atom
           "async/cpu-par/sparse:faults=",            // empty value
           "async/cpu-par/sparse:faults=nan@1+inf@2", // two corruptions
           "async/cpu-par/sparse:faults=crash@3+crash@5",
           "async/cpu-par/sparse:faults=nodedown@3",  // cluster atom, gone
       }) {
    EXPECT_FALSE(try_parse_spec(text).has_value()) << text;
  }
}

// -------------------------------------------------------------- injection

TEST(FaultInjection, NanCorruptionDivergesAtExactEpoch) {
  Fixture f;
  // Full-batch sync: exactly one model update per epoch, so update step 3
  // is epoch index 3.
  FaultCounters c;
  const RunResult r = f.run("sync/cpu-seq/sparse:faults=nan@3", real_t(0.5),
                            epochs(10), &c);
  EXPECT_TRUE(r.diverged);
  ASSERT_EQ(r.losses.size(), 4u);
  EXPECT_TRUE(std::isfinite(r.losses[2]));
  EXPECT_TRUE(std::isnan(r.losses[3]));
  EXPECT_EQ(c.corruptions, 1u);
  EXPECT_TRUE(r.recoveries.empty());
  // The diverged tail never counts as convergence, whatever the target.
  EXPECT_FALSE(convergence_point(r, 0.0, 1e9).reached);
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, OffByDefaultAndNoOpWithoutFaults) {
  Fixture f;
  TrainOptions off = epochs(8);
  TrainOptions on = watchdog_epochs(8);
  const RunResult r_off = f.run("async/cpu-par/sparse", real_t(0.1), off);
  const RunResult r_on = f.run("async/cpu-par/sparse", real_t(0.1), on);
  // Guardrails on + no faults: bit-identical trajectory, zero recoveries.
  EXPECT_EQ(r_on.losses, r_off.losses);
  EXPECT_EQ(r_on.epoch_seconds, r_off.epoch_seconds);
  EXPECT_TRUE(r_on.recoveries.empty());
  EXPECT_DOUBLE_EQ(r_on.alpha_scale, 1.0);
}

TEST(Watchdog, RecoversFromNanCorruption) {
  Fixture f;
  TrainOptions t = watchdog_epochs(10);
  const RunResult base =
      f.run("sync/cpu-seq/sparse", real_t(0.5), epochs(10));
  const RunResult r =
      f.run("sync/cpu-seq/sparse:faults=nan@3", real_t(0.5), t);
  EXPECT_FALSE(r.diverged);
  ASSERT_EQ(r.losses.size(), 10u);
  for (const double l : r.losses) EXPECT_TRUE(std::isfinite(l));
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_EQ(r.recoveries[0].epoch, 3u);
  EXPECT_EQ(r.recoveries[0].reason, RecoveryReason::kNonFinite);
  EXPECT_TRUE(std::isnan(r.recoveries[0].bad_loss));
  EXPECT_DOUBLE_EQ(r.recoveries[0].alpha_scale_after, 0.1);
  EXPECT_DOUBLE_EQ(r.alpha_scale, 0.1);
  // Pre-fault prefix is untouched (the scale is still exactly 1.0 there);
  // the retried tail runs at alpha/10 and departs from the baseline.
  EXPECT_EQ(std::vector<double>(r.losses.begin(), r.losses.begin() + 3),
            std::vector<double>(base.losses.begin(),
                                base.losses.begin() + 3));
  EXPECT_NE(r.losses[3], base.losses[3]);
}

TEST(Watchdog, BudgetExhaustedStillReportsDivergence) {
  // A persistently-diverging step size: the watchdog spends its budget of
  // kWatchdogBudget (3) rollbacks, then the run is reported diverged
  // exactly like the unguarded loop. The loss stays finite but spikes
  // past the divergence factor, so every rollback is a loss-spike one —
  // the finite-loss trigger of the watchdog.
  Fixture f("covtype");
  const RunResult r =
      f.run("sync/cpu-seq/sparse", real_t(1e12), watchdog_epochs(20));
  EXPECT_TRUE(r.diverged);
  ASSERT_EQ(kWatchdogBudget, 3u);
  ASSERT_EQ(r.recoveries.size(), 3u);
  for (const RecoveryEvent& rec : r.recoveries) {
    EXPECT_EQ(rec.reason, RecoveryReason::kLossSpike) << rec.epoch;
    EXPECT_TRUE(std::isfinite(rec.bad_loss)) << rec.epoch;
  }
  EXPECT_EQ(r.resilience.recoveries, 3u);
  EXPECT_DOUBLE_EQ(r.alpha_scale, 1e-3);
}

TEST(Watchdog, RollsBackWithFixedBackoffAndCountsMetrics) {
  Fixture f;
  const std::unique_ptr<Engine> engine = make_engine(
      parse_spec("sync/cpu-seq/sparse:faults=nan@3,telemetry=metrics"),
      f.ctx);
  const RunResult r = run_training(*engine, f.lr, f.ctx.data, f.w0,
                                   real_t(0.5), watchdog_epochs(10));
  EXPECT_FALSE(r.diverged);
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_EQ(r.recoveries[0].epoch, 3u);
  EXPECT_DOUBLE_EQ(r.alpha_scale, 0.1);  // the fixed watchdog backoff
  EXPECT_EQ(r.resilience.recoveries, 1u);
  ASSERT_NE(engine->telemetry(), nullptr);
  EXPECT_EQ(
      engine->telemetry()->metrics().counter("resilience.recoveries").value(),
      1.0);
}

TEST(Watchdog, SpecKeyParsesFormatsAndDefaultsOff) {
  const EngineSpec s = parse_spec("sync/cpu-seq/sparse:resilience=watchdog");
  EXPECT_TRUE(s.watchdog);
  EXPECT_EQ(parse_spec(format_spec(s)), s);
  EXPECT_FALSE(parse_spec("sync/cpu-seq/sparse:resilience=off").watchdog);
  // Default off and omitted from the canonical form.
  const EngineSpec plain = parse_spec("sync/cpu-seq/sparse");
  EXPECT_FALSE(plain.watchdog);
  EXPECT_EQ(format_spec(plain).find("resilience"), std::string::npos);
  // The removed full mode, its fault classes and the removed perturbation
  // keys and atoms are rejected with an error that names the offending
  // token.
  const std::pair<const char*, const char*> rejected[] = {
      {"sync/cpu-seq/sparse:resilience=full", "resilience=full"},
      {"sync/cpu-seq/sparse:resilience=bogus", "resilience=bogus"},
      {"sync/cpu-seq/sparse:poison=0.1", "poison"},
      {"sync/cpu-seq/sparse:faults=hang@3", "faults=hang@3"},
      {"sync/cpu-seq/sparse:straggler=0.1", "straggler"},
      {"sync/cpu-seq/sparse:drop=0.05", "drop"},
      {"sync/cpu-seq/sparse:faults=flip@3", "faults=flip@3"},
  };
  for (const auto& [text, token] : rejected) {
    std::string error;
    EXPECT_FALSE(try_parse_spec(text, &error).has_value()) << text;
    EXPECT_NE(error.find(token), std::string::npos) << text << ": " << error;
  }
}

// ----------------------------------------------------- checkpoint/resume

TEST(Checkpoint, SaveLoadRoundTrip) {
  TrainCheckpoint ck;
  ck.next_epoch = 7;
  ck.alpha_scale = 0.01;
  ck.recoveries_used = 2;
  Rng rng(123);
  (void)rng.normal();  // populate the Box-Muller spare
  ck.rng = rng.state();
  ck.w = {real_t(1.5), real_t(-2.25), real_t(0)};
  ck.partial.initial_loss = 3.5;
  ck.partial.losses = {3.0, 2.5};
  ck.partial.epoch_seconds = {0.5, 0.25};
  ck.partial.alpha_scale = 0.1;
  ck.partial.recoveries.push_back(
      {4, 1e9, 0.1, RecoveryReason::kLossSpike});

  const std::string path = testing::TempDir() + "/parsgd_ck_roundtrip.bin";
  save_checkpoint(path, ck);
  const TrainCheckpoint back = load_checkpoint(path);
  EXPECT_EQ(back.next_epoch, ck.next_epoch);
  EXPECT_EQ(back.alpha_scale, ck.alpha_scale);
  EXPECT_EQ(back.recoveries_used, ck.recoveries_used);
  EXPECT_EQ(back.rng, ck.rng);
  EXPECT_EQ(back.w, ck.w);
  EXPECT_EQ(back.partial.initial_loss, ck.partial.initial_loss);
  EXPECT_EQ(back.partial.losses, ck.partial.losses);
  EXPECT_EQ(back.partial.epoch_seconds, ck.partial.epoch_seconds);
  EXPECT_EQ(back.partial.diverged, ck.partial.diverged);
  EXPECT_EQ(back.partial.alpha_scale, ck.partial.alpha_scale);
  ASSERT_EQ(back.partial.recoveries.size(), 1u);
  EXPECT_EQ(back.partial.recoveries[0].epoch, 4u);
  EXPECT_EQ(back.partial.recoveries[0].bad_loss, 1e9);
  EXPECT_EQ(back.partial.recoveries[0].alpha_scale_after, 0.1);
  EXPECT_EQ(back.partial.recoveries[0].reason, RecoveryReason::kLossSpike);
}

TEST(Checkpoint, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_THROW(load_checkpoint("/nonexistent/parsgd/ck.bin"), CheckError);
  const std::string path = testing::TempDir() + "/parsgd_ck_corrupt.bin";
  std::ofstream(path, std::ios::binary) << "not a checkpoint";
  EXPECT_THROW(load_checkpoint(path), CheckError);
  // Recovery reasons 2 and 3 (the deadline and bad-weights reasons of the
  // removed full resilience mode) must fail loudly, naming the file.
  for (const std::uint8_t reason : {std::uint8_t{2}, std::uint8_t{3}}) {
    TrainCheckpoint ck;
    ck.w = {real_t(1)};
    ck.partial.recoveries.push_back(
        {1, 1e9, 0.1, static_cast<RecoveryReason>(reason)});
    const std::string old_path =
        testing::TempDir() + "/parsgd_ck_old_reason.bin";
    save_checkpoint(old_path, ck);
    try {
      load_checkpoint(old_path);
      ADD_FAILURE() << "reason " << int{reason} << " loaded";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(old_path), std::string::npos)
          << e.what();
    }
  }
}

// The checkpoint loader is an input surface: counts come from the file,
// so the tests below fabricate and corrupt files byte by byte.

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

template <typename T>
void poke(std::string& bytes, std::size_t offset, T v) {
  bytes.replace(offset, sizeof(T), reinterpret_cast<const char*>(&v),
                sizeof(T));
}

/// A small checkpoint with every variable-length section non-empty.
TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint ck;
  ck.next_epoch = 3;
  ck.alpha_scale = 0.1;
  ck.recoveries_used = 1;
  ck.rng = Rng(9).state();
  ck.w = {real_t(1), real_t(-2), real_t(3)};
  ck.partial.initial_loss = 5;
  ck.partial.losses = {4, 3, 2};
  ck.partial.epoch_seconds = {1, 1, 1};
  ck.partial.alpha_scale = 0.1;
  ck.partial.recoveries.push_back({1, 1e9, 0.1, RecoveryReason::kLossSpike});
  return ck;
}

/// Byte offsets of the u64 count fields of `ck` as save_checkpoint lays
/// them out: weights, losses, epoch seconds, recoveries, and (in a v2
/// file) the frame window that follows them.
struct CountOffsets {
  std::size_t dim, losses, seconds, recoveries, frames;
};

CountOffsets count_offsets(const TrainCheckpoint& ck) {
  CountOffsets o{};
  // magic, version, next_epoch, alpha_scale, recoveries_used, RNG.
  o.dim = 4 + 4 + 8 + 8 + 8 + 4 * 8 + 8 + 1;
  o.losses = o.dim + 8 + ck.w.size() * sizeof(real_t) + 8 + 1 + 8;
  o.seconds = o.losses + 8 + ck.partial.losses.size() * 8;
  o.recoveries = o.seconds + 8 + ck.partial.epoch_seconds.size() * 8;
  o.frames = o.recoveries + 8 + ck.partial.recoveries.size() * 25;
  return o;
}

/// `v1` rewritten as the version-2 layout older builds wrote: the version
/// word patched to 2 plus a window of `frames` 13-double frames.
std::string as_v2(std::string v1, std::uint64_t frames) {
  poke<std::uint32_t>(v1, 4, 2);
  v1.append(reinterpret_cast<const char*>(&frames), 8);
  for (std::uint64_t i = 0; i < frames * 13; ++i) {
    const double v = static_cast<double>(i);
    v1.append(reinterpret_cast<const char*>(&v), 8);
  }
  return v1;
}

void expect_same_core_state(const TrainCheckpoint& a,
                            const TrainCheckpoint& b) {
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  EXPECT_EQ(a.alpha_scale, b.alpha_scale);
  EXPECT_EQ(a.recoveries_used, b.recoveries_used);
  EXPECT_EQ(a.rng, b.rng);
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.partial.initial_loss, b.partial.initial_loss);
  EXPECT_EQ(a.partial.losses, b.partial.losses);
  EXPECT_EQ(a.partial.epoch_seconds, b.partial.epoch_seconds);
  EXPECT_EQ(a.partial.alpha_scale, b.partial.alpha_scale);
  ASSERT_EQ(a.partial.recoveries.size(), b.partial.recoveries.size());
  for (std::size_t i = 0; i < a.partial.recoveries.size(); ++i) {
    EXPECT_EQ(a.partial.recoveries[i].epoch, b.partial.recoveries[i].epoch);
    EXPECT_EQ(a.partial.recoveries[i].reason, b.partial.recoveries[i].reason);
  }
}

TEST(Checkpoint, V2FilesStillLoad) {
  // Older builds wrote version 2: the v1 state plus a window of frames.
  // The reader skips the window and comes back with the same core state.
  const TrainCheckpoint ck = sample_checkpoint();
  const std::string path = testing::TempDir() + "/parsgd_ck_v2.bin";
  save_checkpoint(path, ck);
  const std::string v1 = read_bytes(path);
  EXPECT_EQ(v1.size(), count_offsets(ck).frames);  // save writes v1
  write_bytes(path, as_v2(v1, 2));
  expect_same_core_state(load_checkpoint(path), ck);

  // A frame count larger than the bytes behind it is rejected.
  std::string forged = as_v2(v1, 2);
  poke<std::uint64_t>(forged, count_offsets(ck).frames, 3);
  write_bytes(path, forged);
  EXPECT_THROW(load_checkpoint(path), CheckError);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(Checkpoint, ForgedCountsThrowBeforeAllocating) {
  // A ~150-byte file whose weight or loss count claims 2^28 entries must
  // be rejected from the bytes left in the file, not after allocating
  // (and zero-filling) 1-2 GiB for the payload.
  const TrainCheckpoint ck = sample_checkpoint();
  const std::string path = testing::TempDir() + "/parsgd_ck_forged.bin";
  save_checkpoint(path, ck);
  const std::string valid = read_bytes(path);
  const CountOffsets o = count_offsets(ck);
  const long rss0 = peak_rss_kb();
  for (const std::size_t offset : {o.dim, o.losses}) {
    std::string forged = valid;
    poke<std::uint64_t>(forged, offset, std::uint64_t{1} << 28);
    write_bytes(path, forged);
    try {
      load_checkpoint(path);
      ADD_FAILURE() << "forged count at byte " << offset << " loaded";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  EXPECT_LT(peak_rss_kb() - rss0, 64 * 1024);
}

TEST(Checkpoint, SeededMutantsLoadOrThrowCheckError) {
  // Seeded mutation run over load_checkpoint: byte flips, deletes,
  // duplicates, truncations and large count overwrites of a v1 and a v2
  // file. Every mutant either loads or throws CheckError with a message;
  // anything else (another exception, a crash, a sanitizer report) is a
  // loader bug.
  const TrainCheckpoint ck = sample_checkpoint();
  const std::string path = testing::TempDir() + "/parsgd_ck_mutant.bin";
  save_checkpoint(path, ck);
  const std::string v1 = read_bytes(path);
  const CountOffsets o = count_offsets(ck);
  const std::vector<std::pair<std::string, std::vector<std::size_t>>> seeds =
      {{v1, {o.dim, o.losses, o.seconds, o.recoveries}},
       {as_v2(v1, 2), {o.dim, o.losses, o.seconds, o.recoveries, o.frames}}};
  Rng rng(0xC4EC4);
  std::size_t loaded = 0, rejected = 0;
  constexpr int kMutants = 2400;
  for (int m = 0; m < kMutants; ++m) {
    const auto& [seed, counts] = seeds[static_cast<std::size_t>(m) % 2];
    std::string bytes = seed;
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
        default: {  // a large count: 2^20..2^63
          const std::size_t field = counts[rng.uniform_index(counts.size())];
          if (field + 8 <= bytes.size()) {
            poke<std::uint64_t>(
                bytes, field, std::uint64_t{1} << (20 + rng.uniform_index(44)));
          }
        }
      }
    }
    write_bytes(path, bytes);
    try {
      load_checkpoint(path);
      ++loaded;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()), "") << "mutant " << m;
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, static_cast<std::size_t>(kMutants));
  // Both outcomes occur: single bit flips in payload doubles still load.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

void expect_crash_resume_bit_identical(const Fixture& f,
                                       const std::string& spec,
                                       const std::string& crash_spec,
                                       const std::string& tag) {
  const real_t alpha = real_t(0.1);
  const RunResult base = f.run(spec, alpha, epochs(10));

  const std::string ckpath = testing::TempDir() + "/parsgd_ck_" + tag;
  TrainOptions crashing = epochs(10);
  crashing.checkpoint_path = ckpath;
  EXPECT_THROW(f.run(crash_spec, alpha, crashing), CrashFault);

  const TrainCheckpoint ck = load_checkpoint(ckpath);
  EXPECT_EQ(ck.next_epoch, 6u);
  EXPECT_EQ(ck.partial.losses,
            std::vector<double>(base.losses.begin(),
                                base.losses.begin() + 6));

  TrainOptions resuming = epochs(10);
  resuming.resume = &ck;
  const RunResult resumed = f.run(spec, alpha, resuming);
  EXPECT_EQ(resumed.losses, base.losses);
  EXPECT_EQ(resumed.epoch_seconds, base.epoch_seconds);
  EXPECT_EQ(resumed.initial_loss, base.initial_loss);
  EXPECT_FALSE(resumed.diverged);
}

TEST(Checkpoint, CrashAndResumeBitIdenticalSyncMiniBatch) {
  Fixture f;
  expect_crash_resume_bit_identical(
      f, "sync/cpu-seq/sparse:batch=32",
      "sync/cpu-seq/sparse:batch=32,faults=crash@6", "sync.bin");
}

TEST(Checkpoint, CrashAndResumeBitIdenticalAsyncCpu) {
  Fixture f;
  expect_crash_resume_bit_identical(
      f, "async/cpu-par/sparse",
      "async/cpu-par/sparse:faults=crash@6", "async.bin");
}

TEST(Checkpoint, CrashAndResumeBitIdenticalSyncGraph) {
  // The task-graph step path on a real multi-worker pool must round-trip
  // through a crash + resume: drop/step RNG draws happen at build time in
  // batch order, so the checkpointed RNG state replays the same epoch
  // graph.
  Fixture f;
  ThreadPool pool(4);
  f.ctx.pool = &pool;
  expect_crash_resume_bit_identical(
      f, "sync/cpu-par/sparse:batch=32",
      "sync/cpu-par/sparse:batch=32,faults=crash@6", "graph.bin");
}

TEST(Checkpoint, TimedAutoCheckpointCrashResumesOnGraphPath) {
  // crash@E + a time-cadence checkpoint + resume on the task-graph step
  // path reproduces the uninterrupted trajectory exactly.
  Fixture f;
  ThreadPool pool(4);
  f.ctx.pool = &pool;
  const std::string spec = "sync/cpu-par/sparse:batch=32";
  const real_t alpha = real_t(0.1);

  // Baseline with a time cadence so aggressive it checkpoints after
  // every epoch; the watchdog counts each write.
  TrainOptions base_opts = watchdog_epochs(10);
  base_opts.checkpoint_path = testing::TempDir() + "/parsgd_ck_timed_base";
  base_opts.checkpoint_every_seconds = 1e-9;
  const RunResult base = f.run(spec, alpha, base_opts);
  EXPECT_GE(base.resilience.checkpoints, 10u);

  const std::string ckpath = testing::TempDir() + "/parsgd_ck_timed";
  TrainOptions crashing = watchdog_epochs(10);
  crashing.checkpoint_path = ckpath;
  crashing.checkpoint_every_seconds = 1e-9;
  EXPECT_THROW(f.run(spec + ",faults=crash@6", alpha, crashing), CrashFault);

  const TrainCheckpoint ck = load_checkpoint(ckpath);
  EXPECT_EQ(ck.next_epoch, 6u);
  TrainOptions resuming = watchdog_epochs(10);
  resuming.resume = &ck;
  const RunResult resumed = f.run(spec, alpha, resuming);
  EXPECT_EQ(resumed.losses, base.losses);
  EXPECT_EQ(resumed.epoch_seconds, base.epoch_seconds);
  EXPECT_FALSE(resumed.diverged);
}

// ----------------------------------------------- divergence bookkeeping

TEST(Convergence, DivergedTailNeverConverges) {
  RunResult r;
  r.initial_loss = 30;
  r.losses = {30, 19};
  r.epoch_seconds = {1, 1};
  r.diverged = true;
  // The final entry (19, under the 19.8 threshold) is the blow-up epoch;
  // it must be excluded from the scan.
  EXPECT_FALSE(convergence_point(r, 18.0, 0.1).reached);
  RunResult ok = r;
  ok.diverged = false;
  const ConvergencePoint p = convergence_point(ok, 18.0, 0.1);
  EXPECT_TRUE(p.reached);
  EXPECT_EQ(p.epochs, 2u);
}

TEST(Study, SweepSurvivesFullyDivergedStepGrid) {
  // covtype: dense, noisy, not linearly separable, so the absurd step
  // size genuinely diverges (a tiny separable set can instead be *fit*
  // by huge perceptron-like steps). The scale keeps the dataset larger
  // than one GPU Hogwild round (13*16 warps * 32 lanes = 6656 examples):
  // a smaller epoch never flushes the round buffer, freezing the GPU
  // trajectory instead of diverging it.
  StudyOptions o;
  o.scale = 80.0;
  o.cpu_threads = 4;
  o.step_grid = {1e9};  // every probe of every configuration diverges
  o.probe_epochs = 3;
  o.full_epochs_linear = 5;
  o.full_epochs_linear_sync = 5;
  Study study(o);
  const ConfigResult sync_res = study.config_result(
      Task::kLr, "covtype", Update::kSync, Arch::kCpuSeq);
  EXPECT_TRUE(sync_res.diverged);
  for (const ConvergencePoint& p : sync_res.ttc) EXPECT_FALSE(p.reached);
  const ConfigResult async_res = study.config_result(
      Task::kLr, "covtype", Update::kAsync, Arch::kCpuPar);
  EXPECT_TRUE(async_res.diverged);
  // The shared optimum degrades to +inf instead of poisoning references.
  EXPECT_TRUE(std::isinf(study.optimum(Task::kLr, "covtype")));
}

}  // namespace
}  // namespace parsgd
