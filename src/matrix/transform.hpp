// Feature-grouping transform (paper §IV-A): to keep MLP models inside GPU
// memory, consecutive features are grouped and averaged so each dataset
// matches its MLP input-layer width (e.g. real-sim 20,958 -> 50 inputs).
// The transform typically *increases* density, which Table I reports in the
// "MLP sparsity" column.
#pragma once

#include "matrix/csr_matrix.hpp"
#include "matrix/dense_matrix.hpp"

namespace parsgd {

/// The buckets of the grouping transform: `cols` columns cut into
/// `groups` contiguous ranges as evenly as possible (the first
/// `cols % groups` ranges get one extra column).
struct FeatureBuckets {
  std::size_t groups, base, extra;
  FeatureBuckets(std::size_t cols, std::size_t groups_)
      : groups(groups_), base(cols / groups_), extra(cols % groups_) {}
  std::size_t bucket_of(std::size_t c) const {
    const std::size_t wide_span = extra * (base + 1);
    if (c < wide_span) return c / (base + 1);
    return extra + (c - wide_span) / base;
  }
  std::size_t width(std::size_t g) const { return base + (g < extra ? 1 : 0); }
};

/// Groups one row (columns increasing, as in every CsrMatrix): for each
/// bucket of `bk` that holds stored entries, in increasing order, writes
/// the bucket to idx and the entries' sum (in row order) over the bucket
/// width to val. Returns how many buckets it wrote, at most
/// min(row.nnz(), bk.groups).
std::size_t group_row(const FeatureBuckets& bk, SparseRowView row,
                      index_t* idx, real_t* val);

/// Groups the `in.cols()` features into `groups` buckets of consecutive
/// features and averages the *stored* values that fall in each bucket over
/// the bucket width. Result is dense rows of width `groups`.
DenseMatrix group_features_dense(const CsrMatrix& in, std::size_t groups);

/// Same transform but keeping a sparse result (zero buckets stay absent).
CsrMatrix group_features_sparse(const CsrMatrix& in, std::size_t groups);

/// Copies rows [begin, end) into a new matrix (mini-batch slicing).
CsrMatrix slice_rows(const CsrMatrix& in, std::size_t begin,
                     std::size_t end);
DenseMatrix slice_rows(const DenseMatrix& in, std::size_t begin,
                       std::size_t end);

}  // namespace parsgd
