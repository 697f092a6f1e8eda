// Synthetic dataset generator matched to the Table I shape statistics.
//
// Why synthetic: the reproduction environment has no network access to the
// LIBSVM repository, so we regenerate data with the same N/d/nnz/sparsity
// shape (scaled in N). Labels come from a hidden ground-truth separator plus
// noise, so the learning problems are realizable and convergence curves are
// meaningful (DESIGN.md §2).
//
// Mechanics:
//  * per-row nnz ~ clipped log-normal, multiplicatively calibrated so the
//    empirical mean matches the profile's nnz_avg;
//  * feature indices ~ bounded Zipf(s) over d features (text-like popularity
//    skew), scattered across the index space by a fixed odd-multiplier
//    permutation so "hot" features are not adjacent;
//  * values ~ |N(0,1)| / sqrt(row nnz) for sparse (tf-idf-like, row norms
//    O(1)); dense covtype rows mix continuous and binary features;
//  * labels y = sign(x·w* + eps), flipped with the profile's noise
//    probability.
//
// Sparse profiles are generated in two passes. A serial pass makes every
// index draw in stream order: a row's distinct indices (deduplicated in a
// d-bit mask) go unsorted into its exact-size segment of the CSR column
// array, the generator state before its values is kept, and its values,
// label noise and flip are skipped past (Rng::skip_normals). A second
// pass, on GeneratorOptions::pool, sorts each row, draws its values again
// from the kept state (the j-th value belongs to the j-th smallest index)
// and forms its margin and label. The separator's per-feature jitter is
// split the same way, in blocks of features. No draw depends on a sort or
// a margin, and each margin sums in index order, so the dataset does not
// depend on the pool or its size.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "data/profile.hpp"

namespace parsgd {

class ThreadPool;

struct GeneratorOptions {
  std::uint64_t seed = 42;
  /// Divide the paper-scale N by this factor (>=1). 1 = paper scale.
  double scale = 50.0;
  /// Materialize a dense copy when it fits within this many bytes.
  std::size_t dense_budget_bytes = std::size_t(256) << 20;
  /// Pool for the per-row pass of sparse profiles; nullptr = the calling
  /// thread. Execution-only: the dataset is bit-identical for every pool
  /// and pool size.
  ThreadPool* pool = nullptr;
};

/// Generates one dataset from a profile.
Dataset generate_dataset(const DatasetProfile& profile,
                         const GeneratorOptions& opts = {});

/// Convenience: generate by Table I name.
Dataset generate_dataset(const std::string& profile_name,
                         const GeneratorOptions& opts = {});

}  // namespace parsgd
