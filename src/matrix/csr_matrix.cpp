#include "matrix/csr_matrix.hpp"

#include <algorithm>
#include <numeric>

namespace parsgd {

DenseMatrix CsrMatrix::to_dense(std::size_t max_bytes) const {
  PARSGD_CHECK(dense_bytes() <= max_bytes,
               "dense materialization would need " << dense_bytes()
                                                   << " bytes");
  DenseMatrix out(rows(), cols_);
  for (std::size_t r = 0; r < rows(); ++r) {
    const auto rv = row(r);
    auto dst = out.row(r);
    for (std::size_t k = 0; k < rv.nnz(); ++k) dst[rv.idx[k]] = rv.val[k];
  }
  return out;
}

const CsrColumnIndex& CsrMatrix::column_index() const {
  return column_index_.get(*this);
}

const CsrColumnIndex& CsrMatrix::ColumnIndexSlot::get(
    const CsrMatrix& m) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (index_ != nullptr) return *index_;
  // Counting sort by column. `slot` first counts each column's entries,
  // then maps a touched column to its next free position; rows are
  // visited in increasing order, so each column's entries stay row-sorted.
  auto ci = std::make_unique<CsrColumnIndex>();
  std::vector<offset_t> slot(m.cols_, 0);
  for (const index_t j : m.col_idx_) ++slot[j];
  ci->col_ptr.push_back(0);
  for (std::size_t j = 0; j < m.cols_; ++j) {
    if (slot[j] == 0) continue;
    const offset_t begin = ci->col_ptr.back();
    ci->cols.push_back(static_cast<index_t>(j));
    ci->col_ptr.push_back(begin + slot[j]);
    slot[j] = begin;
  }
  ci->rows.resize(m.nnz());
  ci->vals.resize(m.nnz());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (offset_t k = m.row_ptr_[r]; k < m.row_ptr_[r + 1]; ++k) {
      const offset_t dst = slot[m.col_idx_[k]]++;
      ci->rows[dst] = static_cast<index_t>(r);
      ci->vals[dst] = m.values_[k];
    }
  }
  index_ = std::move(ci);
  return *index_;
}

CsrMatrix CsrMatrix::from_dense(const DenseMatrix& m) {
  Builder b(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) b.add_dense_row(m.row(r));
  return std::move(b).build();
}

void CsrMatrix::Builder::add_row(std::span<const index_t> idx,
                                 std::span<const real_t> val) {
  PARSGD_CHECK(idx.size() == val.size());
  // Sort the row by column index via an argsort so the (idx, val) pairing
  // is preserved.
  std::vector<std::size_t> order(idx.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b2) { return idx[a] < idx[b2]; });
  index_t prev = 0;
  bool first = true;
  for (const std::size_t k : order) {
    PARSGD_CHECK(idx[k] < cols_, "column " << idx[k] << " out of range");
    PARSGD_CHECK(first || idx[k] != prev, "duplicate column " << idx[k]);
    first = false;
    prev = idx[k];
    col_idx_.push_back(idx[k]);
    values_.push_back(val[k]);
  }
  row_ptr_.push_back(col_idx_.size());
}

void CsrMatrix::Builder::add_dense_row(std::span<const real_t> row) {
  PARSGD_CHECK(row.size() == cols_);
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (row[c] != real_t(0)) {
      col_idx_.push_back(static_cast<index_t>(c));
      values_.push_back(row[c]);
    }
  }
  row_ptr_.push_back(col_idx_.size());
}

CsrMatrix CsrMatrix::Builder::build() && {
  CsrMatrix m;
  m.cols_ = cols_;
  m.row_ptr_ = std::move(row_ptr_);
  m.col_idx_ = std::move(col_idx_);
  m.values_ = std::move(values_);
  return m;
}

}  // namespace parsgd
