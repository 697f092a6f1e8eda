#include "matrix/transform.hpp"

#include <vector>

#include "common/check.hpp"

namespace parsgd {

std::size_t group_row(const FeatureBuckets& bk, SparseRowView row,
                      index_t* idx, real_t* val) {
  std::size_t out = 0;
  for (std::size_t k = 0; k < row.nnz();) {
    const std::size_t g = bk.bucket_of(row.idx[k]);
    real_t acc = 0;
    for (; k < row.nnz() && bk.bucket_of(row.idx[k]) == g; ++k) {
      acc += row.val[k];
    }
    idx[out] = static_cast<index_t>(g);
    val[out++] = acc / static_cast<real_t>(bk.width(g));
  }
  return out;
}

DenseMatrix group_features_dense(const CsrMatrix& in, std::size_t groups) {
  PARSGD_CHECK(groups > 0 && groups <= in.cols(),
               "groups=" << groups << " cols=" << in.cols());
  const FeatureBuckets bk(in.cols(), groups);
  DenseMatrix out(in.rows(), groups);
  for (std::size_t r = 0; r < in.rows(); ++r) {
    const auto rv = in.row(r);
    auto dst = out.row(r);
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      const std::size_t g = bk.bucket_of(rv.idx[k]);
      dst[g] += rv.val[k];
    }
    for (std::size_t g = 0; g < groups; ++g) {
      dst[g] /= static_cast<real_t>(bk.width(g));
    }
  }
  return out;
}

CsrMatrix group_features_sparse(const CsrMatrix& in, std::size_t groups) {
  PARSGD_CHECK(groups > 0 && groups <= in.cols());
  const FeatureBuckets bk(in.cols(), groups);
  CsrMatrix::Builder b(groups);
  std::vector<index_t> idx(groups);
  std::vector<real_t> val(groups);
  for (std::size_t r = 0; r < in.rows(); ++r) {
    const std::size_t k = group_row(bk, in.row(r), idx.data(), val.data());
    b.add_row({idx.data(), k}, {val.data(), k});
  }
  return std::move(b).build();
}

CsrMatrix slice_rows(const CsrMatrix& in, std::size_t begin,
                     std::size_t end) {
  PARSGD_CHECK(begin <= end && end <= in.rows());
  CsrMatrix::Builder b(in.cols());
  for (std::size_t r = begin; r < end; ++r) {
    const auto rv = in.row(r);
    b.add_row(rv.idx, rv.val);
  }
  return std::move(b).build();
}

DenseMatrix slice_rows(const DenseMatrix& in, std::size_t begin,
                       std::size_t end) {
  PARSGD_CHECK(begin <= end && end <= in.rows());
  DenseMatrix out(end - begin, in.cols());
  for (std::size_t r = begin; r < end; ++r) {
    const auto src = in.row(r);
    std::copy(src.begin(), src.end(), out.row(r - begin).begin());
  }
  return out;
}

}  // namespace parsgd
