#include "data/mlp_view.hpp"

#include <cmath>

#include "common/check.hpp"
#include "matrix/transform.hpp"

namespace parsgd {

namespace {

// Rescales the matrix so the mean row L2 norm is 1 — standard neural-net
// input normalization. Averaging hundreds of sparse features per bucket
// leaves grouped values ~1e-3, which freezes sigmoid training; the paper's
// MLPs train normally, so its pipeline normalizes (or its value scale
// differs). The rescale preserves separability exactly.
CsrMatrix normalize_rows(CsrMatrix m) {
  double total = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto rv = m.row(r);
    double sq = 0;
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      sq += static_cast<double>(rv.val[k]) * rv.val[k];
    }
    total += std::sqrt(sq);
  }
  const double mean = total / std::max<std::size_t>(1, m.rows());
  if (mean <= 0) return m;
  const auto scale = static_cast<real_t>(1.0 / mean);
  CsrMatrix::Builder b(m.cols());
  std::vector<real_t> vals;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto rv = m.row(r);
    vals.assign(rv.val.begin(), rv.val.end());
    for (auto& v : vals) v *= scale;
    b.add_row(rv.idx, vals);
  }
  return std::move(b).build();
}

}  // namespace

Dataset make_mlp_dataset(const Dataset& base) {
  const std::size_t groups = base.profile.mlp_input;
  PARSGD_CHECK(groups > 0);
  Dataset out;
  out.profile = base.profile;
  out.y = base.y;
  // Already at the MLP input width (covtype, w8a): keep features as-is.
  out.x = groups == base.d()
              ? base.x
              : normalize_rows(group_features_sparse(base.x, groups));
  out.x_dense = out.x.to_dense();
  return out;
}

}  // namespace parsgd
