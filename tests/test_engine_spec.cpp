#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"

namespace parsgd {
namespace {

struct Fixture {
  Dataset ds;
  LogisticRegression lr;
  EngineContext ctx;
  std::vector<real_t> w0;

  explicit Fixture(const char* name, Layout layout = Layout::kSparse)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 5, .scale = 500.0})),
        lr(ds.d()) {
    ctx = make_engine_context(ds, lr, layout);
    w0 = lr.init_params(5);
  }
};

TEST(EngineSpec, RegisteredSpecsRoundTrip) {
  // Exactly the Fig. 1 cube, in family-key order (Study's search order).
  const std::vector<EngineSpec> specs = registered_specs();
  std::vector<std::string> families;
  for (const EngineSpec& s : specs) {
    families.push_back(s.family());
    EXPECT_EQ(parse_spec(format_spec(s)), s) << format_spec(s);
    EXPECT_EQ(s, parse_spec(s.family() + "/sparse")) << format_spec(s);
  }
  EXPECT_EQ(families,
            (std::vector<std::string>{"async/cpu-par", "async/cpu-seq",
                                      "async/gpu", "sync/cpu-par",
                                      "sync/cpu-seq", "sync/gpu"}));
}

TEST(EngineSpec, CanonicalStringsRoundTrip) {
  // Canonical text -> spec -> text is the identity.
  for (const char* text : {
           "sync/cpu-seq/sparse",
           "sync/cpu-par/dense",
           "sync/gpu/dense:batch=64,calib=mlp",
           "async/cpu-seq/sparse:batch=64,calib=mlp,delay=3,threads=8",
           "async/cpu-par/sparse:threads=28",
           "async/gpu/dense:batch=512,calib=mlp",
           "sync/cpu-par/dense:calib=none,gemmth=0",
       }) {
    EXPECT_EQ(format_spec(parse_spec(text)), text);
  }
}

TEST(EngineSpec, OptionFieldsParse) {
  const EngineSpec s = parse_spec(
      "async/cpu-par/dense:batch=512,calib=mlp,delay=7,threads=16");
  EXPECT_EQ(s.update, Update::kAsync);
  EXPECT_EQ(s.arch, Arch::kCpuPar);
  EXPECT_EQ(s.layout, Layout::kDense);
  EXPECT_EQ(s.batch, 512u);
  EXPECT_EQ(s.calibration, Calibration::kMlp);
  EXPECT_EQ(s.delay_units, 7u);
  EXPECT_EQ(s.threads, 16);
}

TEST(EngineSpec, GraphKeyIsRejected) {
  // The task graph is the only mini-batch step path, so there is no
  // graph= switch; the error names the key.
  std::string err;
  EXPECT_FALSE(
      try_parse_spec("sync/cpu-par/sparse:graph=on", &err).has_value());
  EXPECT_NE(err.find("graph"), std::string::npos) << err;
}

TEST(EngineSpec, MalformedSpecsRejected) {
  for (const char* text : {
           "",
           "sync",
           "sync/cpu-par",
           "sync/cpu-par/sparse/extra",
           "frob/cpu-par/sparse",
           "sync/tpu/sparse",
           "sync/cpu-par/ragged",
           "sync/cpu-par/sparse:batch=abc",
           "sync/cpu-par/sparse:batch=",
           "sync/cpu-par/sparse:frob=1",
           "sync/cpu-par/sparse:",
           "sync/cpu-par/sparse:batch",
           "sync/cpu-par/sparse:calib=magic",
           // Counts are non-negative and in range, not wrapped modulo 2^64.
           "sync/cpu-par/sparse:batch=-1",
           "async/cpu-par/sparse:delay=-3",
           "sync/cpu-par/sparse:gemmth=-1",
           "sync/cpu-par/sparse:threads=-1",
           "sync/cpu-par/sparse:batch=99999999999999999999999",
           "async/cpu-par/sparse:faults=nan@-1",
           "sync/cpu+gpu/sparse",
           "sync/gpu/sparse:phi=0.5",
           "async/cpu-par/sparse:record=100ms",
       }) {
    EXPECT_FALSE(try_parse_spec(text).has_value()) << text;
    EXPECT_THROW(parse_spec(text), CheckError) << text;
  }
  // No CPU+GPU split engine exists: its arch and its phi= key are errors
  // that name the offending token. Neither is there a flight recorder
  // (record=), a simulated cluster (arch cluster, nodes=, link=, sync=,
  // shard=) or fault injection (faults=).
  for (const auto& [text, token] :
       {std::pair{"sync/cpu+gpu/sparse", "'cpu+gpu'"},
        std::pair{"sync/gpu/sparse:phi=0.5", "'phi'"},
        std::pair{"async/cpu-par/sparse:record=100ms", "'record'"},
        std::pair{"async/cluster/sparse", "'cluster'"},
        std::pair{"sync/cpu-seq/sparse:nodes=4", "'nodes'"},
        std::pair{"async/cpu-par/sparse:link=10us:10gbps", "'link'"},
        std::pair{"async/cpu-par/sparse:sync=ps", "'sync'"},
        std::pair{"sync/cpu-par/sparse:shard=data", "'shard'"},
        std::pair{"async/cpu-par/sparse:faults=nodedown@2", "'faults'"},
        std::pair{"sync/cpu-seq/sparse:faults=nan@3", "'faults'"}}) {
    std::string err;
    EXPECT_FALSE(try_parse_spec(text, &err).has_value());
    EXPECT_NE(err.find(token), std::string::npos) << err;
    EXPECT_THROW(parse_spec(text), CheckError) << text;
  }
}

TEST(EngineSpec, SeededMutantsAreRejectedOrRoundTrip) {
  // Seeded mutation run over try_parse_spec: every mutant of a canonical
  // or registered spec string is either rejected with a reason or accepted
  // with parse(format(s)) == s. Replacing a digit with a 15-digit run
  // probes the count ranges.
  std::vector<std::string> seeds = {
      "sync/gpu/dense:batch=64,calib=mlp",
      "async/cpu-seq/sparse:batch=64,calib=mlp,delay=3,threads=8",
      "sync/cpu-par/dense:calib=none,gemmth=0,det=off",
      "async/cpu-par/sparse:resilience=watchdog",
      "async/cpu-par/sparse:telemetry=metrics",
  };
  for (const EngineSpec& s : registered_specs()) {
    seeds.push_back(format_spec(s));
  }
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(try_parse_spec(seed).has_value()) << seed;
  }
  const std::string inserts = "-+.,:=@/09e";
  Rng rng(0x5EED5EC);
  std::size_t accepted = 0;
  constexpr int kMutants = 10000;
  for (int i = 0; i < kMutants; ++i) {
    std::string m = seeds[rng.uniform_index(seeds.size())];
    const std::uint64_t edits = 1 + rng.uniform_index(3);
    for (std::uint64_t k = 0; k < edits && !m.empty(); ++k) {
      const std::size_t pos = rng.uniform_index(m.size());
      switch (rng.uniform_index(5)) {
        case 0:  // flip: xor the byte with a random non-zero value
          m[pos] = static_cast<char>(m[pos] ^ (1 + rng.uniform_index(255)));
          break;
        case 1: m.erase(pos, 1); break;
        case 2: m.insert(pos, 1, m[pos]); break;
        case 3:
          m.insert(pos, 1, inserts[rng.uniform_index(inserts.size())]);
          break;
        default: {  // a digit becomes a 15-digit run
          const std::size_t d = m.find_first_of("0123456789", pos);
          if (d == std::string::npos) break;
          std::string run;
          for (int j = 0; j < 15; ++j) {
            run += static_cast<char>('0' + rng.uniform_index(10));
          }
          m.replace(d, 1, run);
        }
      }
    }
    std::string err;
    const std::optional<EngineSpec> s = try_parse_spec(m, &err);
    if (!s.has_value()) {
      EXPECT_FALSE(err.empty()) << "rejected without a reason: " << m;
      continue;
    }
    ++accepted;
    const std::string text = format_spec(*s);
    const std::optional<EngineSpec> back = try_parse_spec(text, &err);
    ASSERT_TRUE(back.has_value()) << m << " -> " << text << ": " << err;
    EXPECT_EQ(*back, *s) << m << " -> " << text;
    EXPECT_EQ(format_spec(*back), text) << m;
  }
  // Both outcomes are exercised, not just the rejections.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_LT(accepted, kMutants * 9 / 10);
}

TEST(EngineSpec, EveryRegisteredSpecYieldsMatchingEngine) {
  Fixture f("covtype");
  for (const EngineSpec& spec : registered_specs()) {
    const std::unique_ptr<Engine> engine = make_engine(spec, f.ctx);
    ASSERT_NE(engine, nullptr) << format_spec(spec);
    EXPECT_EQ(engine->update(), spec.update) << format_spec(spec);
    EXPECT_EQ(engine->arch(), spec.arch) << format_spec(spec);
    // Engine names start with the family key ("sync/cpu-par/dense", ...).
    EXPECT_EQ(engine->name().rfind(spec.family(), 0), 0u)
        << engine->name() << " vs " << format_spec(spec);
  }
}

TEST(EngineSpec, MissingContextAndDenseRejected) {
  Fixture f("news");  // news20-like: too wide for a dense materialization
  ASSERT_FALSE(f.ctx.data.has_dense());
  EngineSpec dense = parse_spec("sync/cpu-seq/dense");
  EXPECT_THROW(make_engine(dense, f.ctx), CheckError);
  EXPECT_THROW(make_engine(EngineSpec{}, EngineContext{}), CheckError);
}

TEST(EngineSpec, SyncTrajectoryBitIdenticalAcrossArchSpecs) {
  Fixture f("w8a");
  auto losses = [&](const char* text) {
    const std::unique_ptr<Engine> engine = make_engine(parse_spec(text),
                                                       f.ctx);
    TrainOptions t;
    t.max_epochs = 5;
    return run_training(*engine, f.lr, f.ctx.data, f.w0, real_t(1.0), t)
        .losses;
  };
  const std::vector<double> seq = losses("sync/cpu-seq/sparse");
  EXPECT_EQ(seq, losses("sync/cpu-par/sparse"));
  EXPECT_EQ(seq, losses("sync/gpu/sparse"));
}

TEST(EngineSpec, InjectedPoolIsExecutionOnly) {
  // A pool from the context must not change the trajectory (the task
  // graph's fixed decomposition grid), only where the work runs.
  Fixture f("covtype");
  auto losses = [&](ThreadPool* pool) {
    EngineContext ctx = f.ctx;
    ctx.pool = pool;
    const std::unique_ptr<Engine> engine =
        make_engine(parse_spec("sync/cpu-seq/sparse:batch=32"), ctx);
    TrainOptions t;
    t.max_epochs = 3;
    return run_training(*engine, f.lr, ctx.data, f.w0, real_t(0.5), t)
        .losses;
  };
  ThreadPool pool(3);
  EXPECT_EQ(losses(nullptr), losses(&pool));
}

TEST(EngineSpec, ThreadsOverrideChangesModeledTime) {
  Fixture f("covtype", Layout::kDense);
  auto secs = [&](const char* text) {
    return make_engine(parse_spec(text), f.ctx)->epoch_seconds(f.w0);
  };
  const double full = secs("sync/cpu-par/dense");        // ctx default: 56
  const double small = secs("sync/cpu-par/dense:threads=2");
  EXPECT_LT(full, small);  // fewer threads, slower modeled epoch
}

}  // namespace
}  // namespace parsgd
