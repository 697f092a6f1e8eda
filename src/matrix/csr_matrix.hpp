// Compressed Sparse Row matrix — the sparse representation of the paper's
// data-sparsity axis. Column indices within a row are kept sorted, which the
// coalescing analysis in gpusim relies on.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "matrix/types.hpp"

namespace parsgd {

/// A non-owning view of one sparse row: parallel (index, value) arrays.
struct SparseRowView {
  std::span<const index_t> idx;
  std::span<const real_t> val;
  std::size_t nnz() const { return idx.size(); }
};

/// Column-major index of a CSR matrix over its touched columns J (the
/// columns holding at least one stored entry), in increasing column
/// order. Entry k of touched column `cols[p]` lives at positions
/// [col_ptr[p], col_ptr[p+1]) of `rows`/`vals`, in increasing row order.
/// Its size is O(nnz + |J|), independent of cols(): the transposed
/// products of high-dimensional sparse data (news: d = 1.35M, |J| = 70k
/// at 1/400 scale) fold over J instead of touching all d columns.
struct CsrColumnIndex {
  std::vector<index_t> cols;
  std::vector<offset_t> col_ptr;
  std::vector<index_t> rows;
  std::vector<real_t> vals;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  std::size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }
  /// Bytes of the CSR arrays (the "s" column of Table I).
  std::size_t bytes() const {
    return row_ptr_.size() * sizeof(offset_t) +
           col_idx_.size() * sizeof(index_t) + values_.size() * sizeof(real_t);
  }
  /// Bytes the equivalent dense matrix would take (the "d" column).
  std::size_t dense_bytes() const { return rows() * cols_ * sizeof(real_t); }

  SparseRowView row(std::size_t r) const {
    PARSGD_DCHECK(r < rows());
    const offset_t b = row_ptr_[r], e = row_ptr_[r + 1];
    return {{col_idx_.data() + b, static_cast<std::size_t>(e - b)},
            {values_.data() + b, static_cast<std::size_t>(e - b)}};
  }
  std::size_t row_nnz(std::size_t r) const {
    PARSGD_DCHECK(r < rows());
    return static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r]);
  }

  std::span<const offset_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const real_t> values() const { return values_; }

  /// Fraction of entries that are non-zero, in [0, 1].
  double density() const {
    const double total = static_cast<double>(rows()) * cols_;
    return total == 0 ? 0.0 : static_cast<double>(nnz()) / total;
  }

  /// Materializes the dense equivalent. Throws if it would exceed
  /// `max_bytes` (guards against the paper's 256 GB rcv1-dense case).
  DenseMatrix to_dense(std::size_t max_bytes = std::size_t(1) << 33) const;

  /// Builds a CSR from a dense matrix, dropping zeros.
  static CsrMatrix from_dense(const DenseMatrix& m);

  /// The column-major index, built on first use and cached with the
  /// matrix. Safe to request from several threads at once. Not part of
  /// the value (operator==); a copy or assignment starts without one.
  const CsrColumnIndex& column_index() const;

  bool operator==(const CsrMatrix& o) const {
    return cols_ == o.cols_ && row_ptr_ == o.row_ptr_ &&
           col_idx_ == o.col_idx_ && values_ == o.values_;
  }

  /// Incremental row-by-row builder. Rows are appended in order; columns
  /// within a row are sorted on append.
  class Builder {
   public:
    explicit Builder(std::size_t cols) : cols_(cols) { row_ptr_.push_back(0); }

    /// Appends a row given parallel (index, value) arrays. Indices need not
    /// be pre-sorted; duplicates within a row are rejected.
    void add_row(std::span<const index_t> idx, std::span<const real_t> val);
    /// Appends a dense row, dropping zeros.
    void add_dense_row(std::span<const real_t> row);

    std::size_t rows() const { return row_ptr_.size() - 1; }

    CsrMatrix build() &&;

   private:
    std::size_t cols_;
    std::vector<offset_t> row_ptr_;
    std::vector<index_t> col_idx_;
    std::vector<real_t> values_;
  };

 private:
  /// Lazily built, once-only slot for column_index(). Copying a matrix
  /// copies its arrays but not the slot, so the cache never outlives or
  /// mismatches the contents it was built from.
  class ColumnIndexSlot {
   public:
    ColumnIndexSlot() = default;
    ColumnIndexSlot(const ColumnIndexSlot&) noexcept {}
    ColumnIndexSlot& operator=(const ColumnIndexSlot&) {
      const std::lock_guard<std::mutex> lock(mu_);
      index_.reset();
      return *this;
    }
    const CsrColumnIndex& get(const CsrMatrix& m) const;

   private:
    mutable std::mutex mu_;  ///< guards index_
    mutable std::unique_ptr<const CsrColumnIndex> index_;
  };

  std::size_t cols_ = 0;
  std::vector<offset_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<real_t> values_;
  ColumnIndexSlot column_index_;
};

}  // namespace parsgd
