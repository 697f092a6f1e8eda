#include "data/generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {

// Bounded Zipf(s) sampler over ranks [1, d] via the inverse CDF of the
// continuous bounded Pareto approximation. s == 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t d, double s)
      : d_(d), s_(s), log_d_(std::log(static_cast<double>(d_))),
        inv_exp_(1.0 / (1.0 - s_)) {
    if (s_ > 1e-9 && std::abs(s_ - 1.0) > 1e-9) {
      t_ = 1.0 - std::pow(static_cast<double>(d_), 1.0 - s_);
    }
  }

  std::size_t operator()(Rng& rng) const {
    const double u = rng.uniform();
    double rank;
    if (s_ <= 1e-9) {
      rank = 1.0 + u * static_cast<double>(d_ - 1);
    } else if (std::abs(s_ - 1.0) <= 1e-9) {
      // s == 1: log-uniform.
      rank = std::exp(u * log_d_);
    } else {
      rank = std::pow(1.0 - u * t_, inv_exp_);
    }
    auto r = static_cast<std::size_t>(rank);
    return std::min<std::size_t>(std::max<std::size_t>(r, 1), d_) - 1;
  }

 private:
  std::size_t d_;
  double s_;
  double log_d_;
  double inv_exp_;  ///< 1 / (1 - s); unused (infinite) at s == 1
  double t_ = 0;
};

// Scatters Zipf ranks across the feature index space with a fixed odd
// multiplier (a bijection mod 2^k truncated by rejection to [0, d)).
// Keeping popular features non-adjacent matches real bag-of-words layouts
// and exercises the coalescing model honestly.
struct RankScatter {
  std::size_t d;
  explicit RankScatter(std::size_t d_) : d(d_) {}
  index_t operator()(std::size_t rank) const {
    // Fibonacci-hash style mixing, stable across runs.
    const std::uint64_t h = (rank + 1) * 0x9e3779b97f4a7c15ULL;
    return static_cast<index_t>(h % d);
  }
};

// Draws per-row nnz counts: clipped log-normal calibrated multiplicatively
// so the empirical mean matches `target_avg`.
std::vector<std::size_t> draw_nnz_counts(std::size_t n, std::size_t lo,
                                         std::size_t hi, double target_avg,
                                         Rng& rng) {
  PARSGD_CHECK(lo <= hi);
  if (lo == hi) return std::vector<std::size_t>(n, lo);
  const double sigma = 1.0;
  std::vector<double> raw(n);
  for (auto& v : raw) v = std::exp(sigma * rng.normal());

  // Bisection on the multiplicative scale c so mean(clip(c*raw)) ~= target.
  auto mean_for = [&](double c) {
    double total = 0;
    for (const double v : raw) {
      total += std::clamp(c * v, static_cast<double>(lo),
                          static_cast<double>(hi));
    }
    return total / static_cast<double>(n);
  };
  double c_lo = 1e-6, c_hi = static_cast<double>(hi) * 4.0;
  for (int it = 0; it < 60; ++it) {
    const double c = 0.5 * (c_lo + c_hi);
    (mean_for(c) < target_avg ? c_lo : c_hi) = c;
  }
  const double c = 0.5 * (c_lo + c_hi);

  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::size_t>(std::lround(
        std::clamp(c * raw[i], static_cast<double>(lo),
                   static_cast<double>(hi))));
  }
  return out;
}

// Samples `k` distinct feature indices for one row into out[0, k), in
// draw order. `seen` is a d-bit mask, all clear on entry and on return.
void sample_row_indices(std::size_t k, std::size_t d,
                        const ZipfSampler& zipf, const RankScatter& scatter,
                        Rng& rng, std::vector<std::uint64_t>& seen,
                        index_t* out) {
  if (k == 0) return;
  PARSGD_CHECK(k <= d);
  std::size_t m = 0;
  if (k * 2 >= d) {
    // Dense-ish row: choose by uniform thinning over all columns.
    for (std::size_t c = 0; c < d && m < k; ++c) {
      if (rng.uniform() < static_cast<double>(k - m) / (d - c)) {
        out[m++] = static_cast<index_t>(c);
      }
    }
    return;
  }
  // Branch-free: a repeat is written to out[m] and then overwritten.
  // Whether a draw repeats is unpredictable, and a mispredicted branch
  // here would stall the next draw's pow().
  const auto insert = [&](index_t j) {
    const std::uint64_t bit = std::uint64_t(1) << (j % 64);
    std::uint64_t& word = seen[j / 64];
    out[m] = j;
    m += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  };
  std::size_t attempts = 0;
  const std::size_t max_attempts = 64 * k + 256;
  while (m < k && attempts < max_attempts) {
    ++attempts;
    insert(scatter(zipf(rng)));
  }
  // Top up with uniform indices if the Zipf head was too collision-heavy.
  while (m < k) insert(static_cast<index_t>(rng.uniform_index(d)));
  for (std::size_t i = 0; i < k; ++i) seen[out[i] / 64] = 0;
}

// Forms a row's label from its margin: y = sign(margin + 0.1 eps), then
// flipped with probability `noise`. Draws eps and the flip from `rng`.
real_t draw_label(double margin, double noise, Rng& rng) {
  const double noisy = margin + 0.1 * rng.normal();
  real_t label = noisy >= 0 ? real_t(1) : real_t(-1);
  if (rng.bernoulli(noise)) label = -label;
  return label;
}

}  // namespace

Dataset generate_dataset(const DatasetProfile& paper_profile,
                         const GeneratorOptions& opts) {
  const DatasetProfile profile = scaled(paper_profile, opts.scale);
  const std::size_t n = profile.n_examples, d = profile.n_features;
  Rng rng(opts.seed ^ std::hash<std::string>{}(profile.name));

  Dataset ds;
  ds.profile = profile;

  // Hidden separator, scaled so margins x·w* are O(1) given row norms
  // O(1). The separator is piecewise-constant over the MLP grouping
  // buckets (plus per-feature jitter): real text corpora have topic-level
  // coherence among adjacent vocabulary blocks, and — operationally — the
  // feature-grouping transform of §IV-A must preserve label signal, or
  // the grouped MLP task would be unlearnable noise.
  ds.ground_truth.resize(d);
  {
    const std::size_t buckets = std::max<std::size_t>(1, profile.mlp_input);
    std::vector<double> bucket_w(buckets);
    for (auto& v : bucket_w) v = rng.normal(0.0, 1.0);
    const std::size_t base = d / buckets, extra = d % buckets;
    const std::size_t wide_span = extra * (base + 1);
    // Each feature's jitter is drawn on the pool a block at a time: the
    // serial part keeps the generator state at each block's start and
    // skips the block's normals.
    constexpr std::size_t kBlock = 4096;
    std::vector<RngState> block_state((d + kBlock - 1) / kBlock);
    for (std::size_t b = 0; b < block_state.size(); ++b) {
      block_state[b] = rng.state();
      rng.skip_normals(std::min(kBlock, d - b * kBlock));
    }
    parallel_for_on(opts.pool, block_state.size(),
                    [&](std::size_t lo, std::size_t hi) {
      Rng block_rng;
      for (std::size_t b = lo; b < hi; ++b) {
        block_rng.set_state(block_state[b]);
        for (std::size_t j = b * kBlock; j < std::min(d, (b + 1) * kBlock);
             ++j) {
          const std::size_t g =
              j < wide_span
                  ? j / (base + 1)
                  : extra + (j - wide_span) / std::max<std::size_t>(base, 1);
          ds.ground_truth[j] = static_cast<real_t>(
              bucket_w[std::min(g, buckets - 1)] + 0.3 * block_rng.normal());
        }
      }
    });
  }

  std::vector<offset_t> row_ptr(n + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  ds.y.resize(n);

  if (profile.dense) {
    // covtype-like: every feature stored. ~10 continuous dims + binary rest.
    const std::size_t continuous = std::min<std::size_t>(10, d);
    col_idx.resize(n * d);
    values.resize(n * d);
    for (std::size_t i = 0; i < n; ++i) {
      row_ptr[i + 1] = row_ptr[i] + d;
      index_t* idx = col_idx.data() + row_ptr[i];
      real_t* row = values.data() + row_ptr[i];
      double margin = 0;
      for (std::size_t c = 0; c < d; ++c) {
        double v;
        if (c < continuous) {
          v = rng.normal();
        } else {
          // Binary indicator columns; keep a tiny epsilon for zeros so the
          // row remains fully stored (covtype is 100% dense in Table I).
          v = rng.bernoulli(0.3) ? 1.0 : 0.01;
        }
        v /= std::sqrt(static_cast<double>(d));
        idx[c] = static_cast<index_t>(c);
        row[c] = static_cast<real_t>(v);
        margin += v * ds.ground_truth[c];
      }
      ds.y[i] = draw_label(margin, profile.label_noise, rng);
    }
  } else {
    const ZipfSampler zipf(d, profile.zipf_exponent);
    const RankScatter scatter(d);
    const auto nnz = draw_nnz_counts(n, profile.nnz_min,
                                     std::min(profile.nnz_max, d),
                                     profile.nnz_avg, rng);
    for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] = row_ptr[i] + nnz[i];
    col_idx.resize(row_ptr[n]);
    values.resize(row_ptr[n]);

    // Serial pass: every draw, in stream order. A row's indices land
    // unsorted in its segment; its values, label noise and flip are only
    // skipped past, from the state kept for the pooled pass.
    std::vector<RngState> row_state(n);
    {
      std::vector<std::uint64_t> seen((d + 63) / 64, 0);
      for (std::size_t i = 0; i < n; ++i) {
        sample_row_indices(nnz[i], d, zipf, scatter, rng, seen,
                           col_idx.data() + row_ptr[i]);
        row_state[i] = rng.state();
        rng.skip_normals(nnz[i] + 1);  // the values, then the label noise
        rng.bernoulli(profile.label_noise);
      }
    }

    // Pooled pass: sort each row, redraw its values from the kept state
    // (the j-th value belongs to the j-th smallest index) and label it.
    // No draw depends on a sort or a margin, so the output is the same
    // for every pool.
    parallel_for_on(opts.pool, n, [&](std::size_t lo, std::size_t hi) {
      Rng row_rng;
      for (std::size_t i = lo; i < hi; ++i) {
        index_t* idx = col_idx.data() + row_ptr[i];
        real_t* val = values.data() + row_ptr[i];
        const std::size_t k = nnz[i];
        std::sort(idx, idx + k);
        row_rng.set_state(row_state[i]);
        const double inv_norm =
            k == 0 ? 0.0 : 1.0 / std::sqrt(static_cast<double>(k));
        double margin = 0;
        for (std::size_t j = 0; j < k; ++j) {
          const double v = std::abs(row_rng.normal()) * inv_norm;
          val[j] = static_cast<real_t>(v);
          margin += v * ds.ground_truth[idx[j]];
        }
        ds.y[i] = draw_label(margin, profile.label_noise, row_rng);
      }
    });
  }

  ds.x = CsrMatrix(d, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
  if (ds.x.dense_bytes() <= opts.dense_budget_bytes) {
    ds.x_dense = ds.x.to_dense(opts.dense_budget_bytes);
  }
  PARSGD_DEBUG << "generated " << profile.name << ": n=" << n << " d=" << d
               << " nnz=" << ds.x.nnz();
  return ds;
}

Dataset generate_dataset(const std::string& profile_name,
                         const GeneratorOptions& opts) {
  return generate_dataset(profile_by_name(profile_name), opts);
}

}  // namespace parsgd
