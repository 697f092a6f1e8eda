#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "data/generator.hpp"
#include "data/mlp_view.hpp"
#include "data/profile.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {
namespace {

TEST(Profiles, TableOneInventory) {
  const auto& ps = paper_profiles();
  ASSERT_EQ(ps.size(), 5u);
  EXPECT_EQ(ps[0].name, "covtype");
  EXPECT_EQ(ps[0].n_examples, 581012u);
  EXPECT_EQ(ps[0].n_features, 54u);
  EXPECT_TRUE(ps[0].dense);
  EXPECT_EQ(profile_by_name("news").n_features, 1355191u);
  EXPECT_EQ(profile_by_name("rcv1").n_examples, 677399u);
  EXPECT_THROW(profile_by_name("mnist"), CheckError);
}

TEST(Profiles, SparsityMatchesTableOne) {
  // Table I sparsity column: avg nnz / d as a percentage.
  EXPECT_NEAR(profile_by_name("covtype").sparsity_percent(), 100.0, 1e-9);
  EXPECT_NEAR(profile_by_name("w8a").sparsity_percent(), 3.88, 0.05);
  EXPECT_NEAR(profile_by_name("real-sim").sparsity_percent(), 0.25, 0.02);
  EXPECT_NEAR(profile_by_name("rcv1").sparsity_percent(), 0.16, 0.01);
  EXPECT_NEAR(profile_by_name("news").sparsity_percent(), 0.034, 0.005);
}

TEST(Profiles, MlpArchitectures) {
  EXPECT_EQ(profile_by_name("covtype").mlp_architecture(),
            (std::vector<std::size_t>{54, 10, 5, 2}));
  EXPECT_EQ(profile_by_name("real-sim").mlp_architecture(),
            (std::vector<std::size_t>{50, 10, 5, 2}));
  EXPECT_EQ(profile_by_name("news").mlp_architecture(),
            (std::vector<std::size_t>{300, 10, 5, 2}));
}

TEST(Profiles, ScaledKeepsPaperN) {
  const DatasetProfile s = scaled(profile_by_name("rcv1"), 50.0);
  EXPECT_EQ(s.paper_n(), 677399u);
  EXPECT_NEAR(s.n_scale(), 50.0, 1.0);
  EXPECT_EQ(s.n_features, 47236u);  // d unchanged
}

TEST(Profiles, ScaledFloorsAtMinimum) {
  const DatasetProfile s = scaled(profile_by_name("news"), 1e9);
  EXPECT_EQ(s.n_examples, 512u);
}

class GeneratorShape : public testing::TestWithParam<const char*> {};

TEST_P(GeneratorShape, MatchesProfileStatistics) {
  GeneratorOptions opts;
  opts.scale = 200.0;
  opts.seed = 1234;
  const Dataset ds = generate_dataset(GetParam(), opts);
  const DatasetProfile& p = ds.profile;
  EXPECT_EQ(ds.n(), p.n_examples);
  EXPECT_EQ(ds.d(), p.n_features);
  const NnzStats s = ds.nnz_stats();
  EXPECT_GE(s.min, p.nnz_min);
  EXPECT_LE(s.max, p.nnz_max);
  // Mean nnz within 15% of Table I (calibrated log-normal).
  EXPECT_NEAR(s.avg, p.nnz_avg, 0.15 * p.nnz_avg + 1.0);
  // Labels not degenerate.
  const double pos = ds.positive_fraction();
  EXPECT_GT(pos, 0.15);
  EXPECT_LT(pos, 0.85);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, GeneratorShape,
                         testing::Values("covtype", "w8a", "real-sim",
                                         "rcv1", "news"));

TEST(Generator, Deterministic) {
  GeneratorOptions opts;
  opts.scale = 500.0;
  const Dataset a = generate_dataset("w8a", opts);
  const Dataset b = generate_dataset("w8a", opts);
  EXPECT_TRUE(a.x == b.x);
  EXPECT_EQ(a.y, b.y);
}

TEST(Generator, SeedChangesData) {
  GeneratorOptions a, b;
  a.scale = b.scale = 500.0;
  a.seed = 1;
  b.seed = 2;
  EXPECT_FALSE(generate_dataset("w8a", a).x == generate_dataset("w8a", b).x);
}

TEST(Generator, CovtypeIsFullyDense) {
  GeneratorOptions opts;
  opts.scale = 500.0;
  const Dataset ds = generate_dataset("covtype", opts);
  const NnzStats s = ds.nnz_stats();
  EXPECT_EQ(s.min, 54u);
  EXPECT_EQ(s.max, 54u);
  ASSERT_TRUE(ds.x_dense.has_value());
}

TEST(Generator, LabelsCorrelateWithGroundTruth) {
  // The labels must be learnable: the ground-truth margin should predict
  // the label far better than chance.
  GeneratorOptions opts;
  opts.scale = 200.0;
  const Dataset ds = generate_dataset("real-sim", opts);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < ds.n(); ++i) {
    const double margin =
        ds.example(i, false).dot(ds.ground_truth);
    agree += (margin >= 0) == (ds.y[i] > 0);
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(ds.n()), 0.8);
}

TEST(Generator, DenseBudgetRespected) {
  GeneratorOptions opts;
  opts.scale = 200.0;
  opts.dense_budget_bytes = 1;  // forbid densification
  const Dataset ds = generate_dataset("w8a", opts);
  EXPECT_FALSE(ds.x_dense.has_value());
}

TEST(MlpView, GroupsToInputWidth) {
  GeneratorOptions opts;
  opts.scale = 200.0;
  const Dataset base = generate_dataset("real-sim", opts);
  const Dataset mlp = make_mlp_dataset(base);
  EXPECT_EQ(mlp.d(), 50u);
  EXPECT_EQ(mlp.n(), base.n());
  ASSERT_TRUE(mlp.x_dense.has_value());
  // Grouping raises density (Table I: real-sim 0.25% -> 42.64%).
  EXPECT_GT(mlp.x.density(), base.x.density() * 10);
}

TEST(MlpView, IdentityWidthKeepsFeatures) {
  GeneratorOptions opts;
  opts.scale = 500.0;
  const Dataset base = generate_dataset("covtype", opts);
  const Dataset mlp = make_mlp_dataset(base);
  EXPECT_EQ(mlp.d(), base.d());
  EXPECT_TRUE(mlp.x == base.x);
}

// ---- pinned output ----
// FNV-1a digests of every array a generation produces, recorded before
// the generator's per-row pass moved onto a pool. Two scales: 1/400 (the
// quick Table II/III base sets) and Study's MLP scale (paper N / 2048,
// no dense copy), at seeds 42 and 7. Each dataset must come out the same
// with no pool and with pools of 0, 1 and 3 workers.

template <typename T>
std::uint64_t fnv1a(std::span<const T> s,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  for (std::size_t i = 0; i < s.size_bytes(); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest(const CsrMatrix& m) {
  return fnv1a(m.values(), fnv1a(m.col_idx(), fnv1a(m.row_ptr())));
}

std::uint64_t digest(std::span<const real_t> v) { return fnv1a(v); }

GeneratorOptions pinned_options(const std::string& name, bool mlp_scale,
                                std::uint64_t seed) {
  GeneratorOptions g;
  g.seed = seed;
  g.scale = 400.0;
  if (mlp_scale) {
    g.scale = std::max(
        1.0, static_cast<double>(profile_by_name(name).paper_n()) / 2048.0);
    g.dense_budget_bytes = 0;
  }
  return g;
}

/// No pool, then pools of 0, 1 and 3 workers.
std::vector<std::unique_ptr<ThreadPool>> pinned_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  pools.push_back(std::make_unique<ThreadPool>(ThreadPool::NoWorkers{}));
  pools.push_back(std::make_unique<ThreadPool>(1));
  pools.push_back(std::make_unique<ThreadPool>(3));
  return pools;
}

std::string pool_name(const ThreadPool* pool) {
  return pool == nullptr ? "no pool"
                         : std::to_string(pool->size()) + "-worker pool";
}

struct GeneratedDigest {
  const char* name;
  bool mlp_scale;
  std::uint64_t seed, x, y, ground_truth;
};

constexpr GeneratedDigest kGenerated[] = {
    {"covtype", false, 42, 0x03348c94c59574b3ULL, 0x54c99f19da199485ULL, 0x656a2160b27ea9aeULL},
    {"covtype", false, 7, 0xb74ecfa3e9d2bf95ULL, 0x6eb5e661392eec05ULL, 0x79ca13d16cb91cc6ULL},
    {"w8a", false, 42, 0x34225d569f18b83bULL, 0x919bcfb5139c02a5ULL, 0xb1be6421e784ab17ULL},
    {"w8a", false, 7, 0x8a51f137a6badc9aULL, 0x54ba36839292b525ULL, 0x49e0cf14e01d64d9ULL},
    {"real-sim", false, 42, 0x6367e457d52e39fbULL, 0x59c7186476818ca5ULL, 0xe2ec7137ef5a46d8ULL},
    {"real-sim", false, 7, 0xf715f836c8fd0e04ULL, 0xcf36bcd4ff559325ULL, 0xf2458ad606f6fec5ULL},
    {"rcv1", false, 42, 0x0b5d6de7aa0f6bd7ULL, 0x905fffa72daf3c38ULL, 0xd74d6c628f2eff56ULL},
    {"rcv1", false, 7, 0xe967339b3cbf483bULL, 0x534c9554bade2fb8ULL, 0xda8f45d50b25cd18ULL},
    {"news", false, 42, 0x3b0decdd667e0bfbULL, 0x9d98263264ca0f25ULL, 0x6cdaa05a019ee28aULL},
    {"news", false, 7, 0xe8b63aa82fa1e2b9ULL, 0x453ff31ac66deda5ULL, 0xd031d6c092d53833ULL},
    {"covtype", true, 42, 0x8e98b83c9fa18d5cULL, 0xcf2817be85ad2aa5ULL, 0x656a2160b27ea9aeULL},
    {"covtype", true, 7, 0x3eefa5488ed9f2a4ULL, 0x8d3d0d62c196e7a5ULL, 0x79ca13d16cb91cc6ULL},
    {"w8a", true, 42, 0xb1521cc470e19a56ULL, 0x0b55ffbaf6bc0da5ULL, 0xb1be6421e784ab17ULL},
    {"w8a", true, 7, 0xbefbc50e42fc3c67ULL, 0x666f9c8d43786da5ULL, 0x49e0cf14e01d64d9ULL},
    {"real-sim", true, 42, 0x6359a3ec5eb57ef4ULL, 0xb4b950597ab7b0a5ULL, 0xe2ec7137ef5a46d8ULL},
    {"real-sim", true, 7, 0x3528c5bce21810a6ULL, 0xa1774f31e9a63925ULL, 0xf2458ad606f6fec5ULL},
    {"rcv1", true, 42, 0x2780f4156fa4746bULL, 0xd5b59caebc8fac25ULL, 0xd74d6c628f2eff56ULL},
    {"rcv1", true, 7, 0xe11d9d8e813c5856ULL, 0x33075910c947cba5ULL, 0xda8f45d50b25cd18ULL},
    {"news", true, 42, 0x26ef86f4a3f82aaaULL, 0xb68958a8aad2f9a5ULL, 0x6cdaa05a019ee28aULL},
    {"news", true, 7, 0x824cba374f2b4645ULL, 0xd1eab23e14aabca5ULL, 0xd031d6c092d53833ULL},
};

TEST(Generator, PinnedDigestsForEveryPool) {
  const auto pools = pinned_pools();
  for (const GeneratedDigest& e : kGenerated) {
    for (const auto& pool : pools) {
      SCOPED_TRACE(std::string(e.name) + (e.mlp_scale ? " MLP" : " 1/400") +
                   " seed " + std::to_string(e.seed) + ", " +
                   pool_name(pool.get()));
      GeneratorOptions g = pinned_options(e.name, e.mlp_scale, e.seed);
      g.pool = pool.get();
      const Dataset ds = generate_dataset(e.name, g);
      EXPECT_EQ(digest(ds.x), e.x);
      EXPECT_EQ(digest(ds.y), e.y);
      EXPECT_EQ(digest(ds.ground_truth), e.ground_truth);
    }
  }
}

struct ViewDigest {
  const char* name;
  std::uint64_t seed, x, x_dense;
};

constexpr ViewDigest kMlpViews[] = {
    {"covtype", 42, 0x8e98b83c9fa18d5cULL, 0x4027400c8528a1d9ULL},
    {"covtype", 7, 0x3eefa5488ed9f2a4ULL, 0xb01c5daeefdc90adULL},
    {"w8a", 42, 0xb1521cc470e19a56ULL, 0x884444ad3beb54cdULL},
    {"w8a", 7, 0xbefbc50e42fc3c67ULL, 0x259fc67de1468b25ULL},
    {"real-sim", 42, 0x1fa16a5860104ba7ULL, 0xad25e9e989860006ULL},
    {"real-sim", 7, 0xaee58fddf8245920ULL, 0x1c5b89fda3ac5a60ULL},
    {"rcv1", 42, 0x8f2e4b42c297ada2ULL, 0x0d30d0007ee51725ULL},
    {"rcv1", 7, 0x668c03185cc2eae8ULL, 0xbdbb76f5df255e33ULL},
    {"news", 42, 0x28cab647431046b5ULL, 0x5e1d73cc27afdec8ULL},
    {"news", 7, 0x892ebdcc52522c5cULL, 0x62b4dda9cdc8a5b3ULL},
};

TEST(MlpView, PinnedDigestsForEveryPool) {
  const auto pools = pinned_pools();
  for (const ViewDigest& e : kMlpViews) {
    const Dataset base =
        generate_dataset(e.name, pinned_options(e.name, true, e.seed));
    for (const auto& pool : pools) {
      SCOPED_TRACE(std::string(e.name) + " seed " + std::to_string(e.seed) +
                   ", " + pool_name(pool.get()));
      const Dataset mlp = make_mlp_dataset(base, pool.get());
      EXPECT_EQ(digest(mlp.x), e.x);
      ASSERT_TRUE(mlp.x_dense.has_value());
      EXPECT_EQ(digest(mlp.x_dense->data()), e.x_dense);
      EXPECT_EQ(mlp.y, base.y);
    }
  }
}

}  // namespace
}  // namespace parsgd
