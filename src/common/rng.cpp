#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace parsgd {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PARSGD_DCHECK(n > 0);
  // Lemire's nearly-divisionless bounded generation would be faster, but a
  // simple rejection loop keeps the distribution exactly uniform.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::polar_pair(double& u, double& v) {
  double s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return s;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v;
  const double s = polar_pair(u, v);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * mul;
  has_spare_ = true;
  return u * mul;
}

void Rng::skip_normals(std::size_t k) {
  if (k > 0 && has_spare_) {
    has_spare_ = false;
    --k;
  }
  // Skipping a pair needs only its acceptance, not its values.
  double u, v;
  for (; k > 2; k -= 2) polar_pair(u, v);
  // The last pair is drawn, so its second value is left in spare_ as
  // drawing leaves it (whether or not it is still pending).
  if (k > 0) normal();
  if (k == 2) normal();
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

namespace {
template <typename T>
void shuffle_impl(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_index(i);
    std::swap(v[i - 1], v[j]);
  }
}
}  // namespace

void Rng::shuffle(std::vector<std::uint32_t>& v) { shuffle_impl(*this, v); }
void Rng::shuffle(std::vector<std::size_t>& v) { shuffle_impl(*this, v); }

Rng Rng::fork() { return Rng((*this)()); }

RngState Rng::state() const {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.spare = spare_;
  st.has_spare = has_spare_;
  return st;
}

void Rng::set_state(const RngState& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  spare_ = st.spare;
  has_spare_ = st.has_spare;
}

}  // namespace parsgd
