#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace parsgd {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double total = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) total += rng.uniform();
  EXPECT_NEAR(total / kN, 0.5, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformIndexOne) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  constexpr int kN = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(17);
  double total = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) total += rng.normal(3.0, 0.5);
  EXPECT_NEAR(total / kN, 3.0, 0.03);
}

TEST(Rng, SkipNormalsMatchesDrawing) {
  // From a state with and without a spare, skipping k normals leaves the
  // generator where k draws do, spare included.
  for (const bool spare : {false, true}) {
    for (std::size_t k = 0; k <= 7; ++k) {
      Rng drawn(99), skipped(99);
      if (spare) {
        drawn.normal();
        skipped.normal();
      }
      for (std::size_t i = 0; i < k; ++i) drawn.normal();
      skipped.skip_normals(k);
      EXPECT_EQ(drawn.state(), skipped.state()) << spare << " " << k;
      EXPECT_EQ(drawn.normal(), skipped.normal());
    }
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<std::uint32_t> v(100);
  for (std::uint32_t i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(v);
  std::set<std::uint32_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 99u);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(29);
  std::vector<std::uint32_t> v(100);
  for (std::uint32_t i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(v);
  int fixed = 0;
  for (std::uint32_t i = 0; i < 100; ++i) fixed += (v[i] == i);
  EXPECT_LT(fixed, 15);
}

TEST(Rng, ForkIndependence) {
  Rng a(31);
  Rng b = a.fork();
  // Parent and child streams should not be identical.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitMix64KnownSequenceDistinct) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace parsgd
