// Compressed Sparse Row matrix — the sparse representation of the paper's
// data-sparsity axis. Column indices within a row are kept sorted, which the
// coalescing analysis in gpusim relies on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Band-blocked layout of a CSR matrix over its touched columns J (the
/// columns holding at least one stored entry), for the transposed
/// products of high-dimensional sparse data (news: d = 1.35M, |J| = 70k
/// at 1/400 scale). `cols` lists J in increasing column order. Positions
/// of J are cut into bands of band_cols: band b covers positions
/// [band_begin(b), band_begin(b) + band_width(b)). Within a band the
/// entries are stored row by row: segments [band_seg[b], band_seg[b+1])
/// are the band's rows that hold entries in it, in increasing row order;
/// segment s is row seg_row[s], and its entries are [seg_ptr[s],
/// seg_ptr[s+1]) of `pos`/`vals`, in increasing column order, `pos`
/// being the band-local position (column cols[band_begin(b) + pos]). Its
/// size is O(nnz + segments), independent of cols().
struct CsrColumnBands {
  /// Band widths: 4 KB to 16 KB of floats, so a band's accumulators stay
  /// in L1.
  static constexpr std::size_t kMinBandCols = 1024;
  static constexpr std::size_t kMaxBandCols = 4096;
  /// The widest of 4,096, 2,048 and 1,024 columns that still cuts
  /// `touched` columns into at least 16 bands, so that each participant
  /// of a pool gets several; 1,024 when none does. Wider bands mean
  /// longer row segments, narrower ones more parallel work.
  static std::size_t band_cols_for(std::size_t touched) {
    std::size_t cols = kMaxBandCols;
    while (cols > kMinBandCols && touched < 16 * cols) cols /= 2;
    return cols;
  }

  std::size_t band_cols = kMinBandCols;
  std::vector<index_t> cols;
  std::vector<offset_t> band_seg;  ///< bands() + 1 segment offsets
  std::vector<index_t> seg_row;
  std::vector<offset_t> seg_ptr;   ///< segments + 1 entry offsets
  std::vector<std::uint16_t> pos;
  std::vector<real_t> vals;

  std::size_t bands() const { return band_seg.size() - 1; }
  std::size_t band_begin(std::size_t b) const { return b * band_cols; }
  std::size_t band_width(std::size_t b) const {
    return std::min(band_cols, cols.size() - band_begin(b));
  }

  /// z[i - lo] = x_i . w for the rows i in [lo, hi), read from w_J, the
  /// values of w over J in `cols` order. Band by band, and within a band
  /// in increasing position, each row's entries come in CSR order, so
  /// every z is ExampleView::dot's double accumulation bit for bit.
  void row_dots(std::span<const real_t> w_J, std::size_t lo,
                std::size_t hi, double* z) const;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  /// Adopts whole CSR arrays. Throws CheckError unless row_ptr starts at
  /// 0, never decreases and ends at nnz, col_idx and values have the same
  /// length, and every row's columns are strictly increasing and below
  /// `cols`.
  CsrMatrix(std::size_t cols, std::vector<offset_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<real_t> values);

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

  /// The band layout, built on first use and cached with the matrix.
  /// Safe to request from several threads at once. Not part of the value
  /// (operator==); a copy or assignment starts without one.
  const CsrColumnBands& column_bands() const;

  bool operator==(const CsrMatrix& o) const {
    return cols_ == o.cols_ && row_ptr_ == o.row_ptr_ &&
           col_idx_ == o.col_idx_ && values_ == o.values_;
  }

  /// Incremental row-by-row builder. Rows are appended in order; columns
  /// within a row are sorted on append (a row whose columns already
  /// increase strictly is copied as it is).
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
  /// Lazily built, once-only slot for column_bands(). Copying a matrix
  /// copies its arrays but not the slot, so the cache never outlives or
  /// mismatches the contents it was built from.
  class ColumnBandsSlot {
   public:
    ColumnBandsSlot() = default;
    ColumnBandsSlot(const ColumnBandsSlot&) noexcept {}
    ColumnBandsSlot& operator=(const ColumnBandsSlot&) {
      const std::lock_guard<std::mutex> lock(mu_);
      bands_.reset();
      return *this;
    }
    const CsrColumnBands& get(const CsrMatrix& m) const;

   private:
    mutable std::mutex mu_;  ///< guards bands_
    mutable std::unique_ptr<const CsrColumnBands> bands_;
  };

  std::size_t cols_ = 0;
  std::vector<offset_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<real_t> values_;
  ColumnBandsSlot column_bands_;
};

}  // namespace parsgd
