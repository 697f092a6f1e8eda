// Deterministic, fast pseudo-random number generation.
//
// Every stochastic component in parsgd takes an explicit 64-bit seed so
// experiments are reproducible run-to-run (DESIGN.md §5). We use
// xoshiro256** seeded through splitmix64, the standard recipe from
// Blackman & Vigna.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace parsgd {

/// splitmix64 step — used to expand a single seed into a full state.
std::uint64_t splitmix64(std::uint64_t& state);

/// The full serializable generator state (xoshiro256** words + the cached
/// normal() spare), so a run can be checkpointed and resumed bit-identically
/// (DESIGN.md §11).
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  double spare = 0.0;
  bool has_spare = false;

  bool operator==(const RngState&) const = default;
};

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of the next output.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via Marsaglia polar method (cached spare value).
  double normal();
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Advances the generator exactly as k calls of normal() would, without
  /// computing the values it skips.
  void skip_normals(std::size_t k);
  /// True with probability p.
  bool bernoulli(double p);
  /// Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::uint32_t>& v);
  void shuffle(std::vector<std::size_t>& v);

  /// Derive an independent child generator (for per-thread streams).
  Rng fork();

  /// Snapshot / restore the complete generator state (checkpoint/resume,
  /// watchdog rollback).
  RngState state() const;
  void set_state(const RngState& st);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Draws the polar method's (u, v) until it accepts; returns u² + v².
  double polar_pair(double& u, double& v);

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace parsgd
