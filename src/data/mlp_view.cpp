#include "data/mlp_view.hpp"

#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "matrix/transform.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {

// Groups `in` into `groups` buckets (group_features_sparse) and rescales
// it so the mean row L2 norm is 1 — standard neural-net input
// normalization. Averaging hundreds of sparse features per bucket leaves
// grouped values ~1e-3, which freezes sigmoid training; the paper's MLPs
// train normally, so its pipeline normalizes (or its value scale
// differs). The rescale preserves separability exactly. Rows are grouped,
// scaled and densified on `pool`; the mean is summed in row order, so the
// result is the same for every pool.
void group_and_normalize(const CsrMatrix& in, std::size_t groups,
                         ThreadPool* pool, Dataset& out) {
  PARSGD_CHECK(groups <= in.cols());
  const FeatureBuckets bk(in.cols(), groups);
  const std::size_t n = in.rows();
  std::vector<offset_t> row_ptr(n + 1, 0);
  parallel_for_on(pool, n, [&](std::size_t lo, std::size_t hi) {
    std::vector<index_t> idx(groups);
    std::vector<real_t> val(groups);
    for (std::size_t r = lo; r < hi; ++r) {
      row_ptr[r + 1] = group_row(bk, in.row(r), idx.data(), val.data());
    }
  });
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());

  std::vector<index_t> col_idx(row_ptr[n]);
  std::vector<real_t> values(row_ptr[n]);
  std::vector<double> norm(n);
  parallel_for_on(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const offset_t b = row_ptr[r];
      group_row(bk, in.row(r), col_idx.data() + b, values.data() + b);
      double sq = 0;
      for (offset_t k = b; k < row_ptr[r + 1]; ++k) {
        sq += static_cast<double>(values[k]) * values[k];
      }
      norm[r] = std::sqrt(sq);
    }
  });
  double total = 0;
  for (const double v : norm) total += v;
  const double mean = total / static_cast<double>(std::max<std::size_t>(1, n));
  const real_t scale = mean > 0 ? static_cast<real_t>(1.0 / mean) : real_t(1);

  DenseMatrix dense(n, groups);
  parallel_for_on(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const auto dst = dense.row(r);
      for (offset_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        values[k] *= scale;
        dst[col_idx[k]] = values[k];
      }
    }
  });
  out.x = CsrMatrix(groups, std::move(row_ptr), std::move(col_idx),
                    std::move(values));
  out.x_dense = std::move(dense);
}

}  // namespace

Dataset make_mlp_dataset(const Dataset& base, ThreadPool* pool) {
  const std::size_t groups = base.profile.mlp_input;
  PARSGD_CHECK(groups > 0);
  Dataset out;
  out.profile = base.profile;
  out.y = base.y;
  if (groups == base.d()) {
    // Already at the MLP input width (covtype, w8a): keep features as-is.
    out.x = base.x;
    out.x_dense = out.x.to_dense();
  } else {
    group_and_normalize(base.x, groups, pool, out);
  }
  return out;
}

}  // namespace parsgd
