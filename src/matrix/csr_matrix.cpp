#include "matrix/csr_matrix.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

namespace parsgd {

CsrMatrix::CsrMatrix(std::size_t cols, std::vector<offset_t> row_ptr,
                     std::vector<index_t> col_idx, std::vector<real_t> values)
    : cols_(cols), row_ptr_(std::move(row_ptr)), col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  PARSGD_CHECK(!row_ptr_.empty() && row_ptr_.front() == 0 &&
                   row_ptr_.back() == col_idx_.size(),
               "row_ptr must run from 0 to nnz");
  PARSGD_CHECK(col_idx_.size() == values_.size(),
               "col_idx has " << col_idx_.size() << " entries, values "
                              << values_.size());
  for (std::size_t r = 0; r + 1 < row_ptr_.size(); ++r) {
    const offset_t b = row_ptr_[r], e = row_ptr_[r + 1];
    PARSGD_CHECK(b <= e && e <= col_idx_.size(),
                 "row_ptr out of order at row " << r);
    for (offset_t k = b; k < e; ++k) {
      PARSGD_CHECK(col_idx_[k] < cols_,
                   "column " << col_idx_[k] << " out of range");
      PARSGD_CHECK(k == b || col_idx_[k - 1] < col_idx_[k],
                   "row " << r << " columns not strictly increasing");
    }
  }
}

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

void CsrColumnBands::row_dots(std::span<const real_t> w_J, std::size_t lo,
                              std::size_t hi, double* z) const {
  std::fill(z, z + (hi - lo), 0.0);
  for (std::size_t b = 0; b < bands(); ++b) {
    const real_t* wb = w_J.data() + band_begin(b);
    const index_t* first = seg_row.data() + band_seg[b];
    const index_t* last = seg_row.data() + band_seg[b + 1];
    for (std::size_t s = band_seg[b] +
                         (std::lower_bound(first, last, lo) - first);
         s < band_seg[b + 1] && seg_row[s] < hi; ++s) {
      double acc = z[seg_row[s] - lo];
      for (offset_t k = seg_ptr[s]; k < seg_ptr[s + 1]; ++k) {
        acc += static_cast<double>(vals[k]) * wb[pos[k]];
      }
      z[seg_row[s] - lo] = acc;
    }
  }
}

const CsrColumnBands& CsrMatrix::column_bands() const {
  return column_bands_.get(*this);
}

const CsrColumnBands& CsrMatrix::ColumnBandsSlot::get(
    const CsrMatrix& m) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (bands_ != nullptr) return *bands_;
  auto cb = std::make_unique<CsrColumnBands>();
  // J in increasing order, and each touched column's position in it.
  // `at` marks the touched columns first; only their entries are read.
  std::vector<index_t> at(m.cols_, 0);
  for (const index_t j : m.col_idx_) at[j] = 1;
  for (std::size_t j = 0; j < m.cols_; ++j) {
    if (at[j] == 0) continue;
    at[j] = static_cast<index_t>(cb->cols.size());
    cb->cols.push_back(static_cast<index_t>(j));
  }
  const std::size_t band = CsrColumnBands::band_cols_for(cb->cols.size());
  cb->band_cols = band;
  // Counting sort of the entries by band, rows in increasing order. A
  // row's entries are column-sorted, so its entries in one band are
  // consecutive and form one segment.
  const std::size_t bands = (cb->cols.size() + band - 1) / band;
  std::vector<offset_t> segs(bands + 1, 0), entries(bands + 1, 0);
  const auto for_each_segment = [&](auto&& fn) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (offset_t k = m.row_ptr_[r]; k < m.row_ptr_[r + 1];) {
        const std::size_t b = at[m.col_idx_[k]] / band;
        offset_t end = k + 1;
        while (end < m.row_ptr_[r + 1] && at[m.col_idx_[end]] / band == b) {
          ++end;
        }
        fn(r, b, k, end);
        k = end;
      }
    }
  };
  for_each_segment([&](std::size_t, std::size_t b, offset_t k, offset_t end) {
    ++segs[b + 1];
    entries[b + 1] += end - k;
  });
  for (std::size_t b = 0; b < bands; ++b) {
    segs[b + 1] += segs[b];
    entries[b + 1] += entries[b];
  }
  cb->band_seg = segs;
  cb->seg_row.resize(segs[bands]);
  cb->seg_ptr.resize(segs[bands] + 1);
  cb->seg_ptr[segs[bands]] = m.nnz();
  cb->pos.resize(m.nnz());
  cb->vals.resize(m.nnz());
  // `segs` and `entries` now serve as each band's next free slot.
  for_each_segment([&](std::size_t r, std::size_t b, offset_t k,
                       offset_t end) {
    const offset_t s = segs[b]++;
    cb->seg_row[s] = static_cast<index_t>(r);
    cb->seg_ptr[s] = entries[b];
    for (; k < end; ++k) {
      const offset_t e = entries[b]++;
      cb->pos[e] = static_cast<std::uint16_t>(at[m.col_idx_[k]] % band);
      cb->vals[e] = m.values_[k];
    }
  });
  bands_ = std::move(cb);
  return *bands_;
}

CsrMatrix CsrMatrix::from_dense(const DenseMatrix& m) {
  Builder b(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) b.add_dense_row(m.row(r));
  return std::move(b).build();
}

void CsrMatrix::Builder::add_row(std::span<const index_t> idx,
                                 std::span<const real_t> val) {
  PARSGD_CHECK(idx.size() == val.size());
  if (std::adjacent_find(idx.begin(), idx.end(), std::greater_equal<>()) ==
      idx.end()) {
    PARSGD_CHECK(idx.empty() || idx.back() < cols_,
                 "column " << idx.back() << " out of range");
    col_idx_.insert(col_idx_.end(), idx.begin(), idx.end());
    values_.insert(values_.end(), val.begin(), val.end());
    row_ptr_.push_back(col_idx_.size());
    return;
  }
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
