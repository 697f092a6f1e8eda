// Row-major dense matrix of real_t, the "complete dense 2-D matrix
// representation" of the paper's dense-data axis.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "matrix/types.hpp"

namespace parsgd {

/// Feature-major example blocks of a dense matrix: the examples-in-lanes
/// layout the MLP's input layer reads for each block, and the `xt`
/// operand of kernel::Kernels::block_gemm. Block k holds rows
/// [k * lanes, k * lanes + lanes) as a cols x lanes array: feature p of
/// row k * lanes + b sits at block(k)[p * lanes + b]. Lanes past the last
/// row are zero.
struct DenseExampleBlocks {
  std::size_t lanes = 1;
  std::size_t cols = 0;
  std::vector<real_t> vals;

  const real_t* block(std::size_t k) const {
    return vals.data() + k * cols * lanes;
  }
};

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, real_t fill = 0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  std::size_t bytes() const { return data_.size() * sizeof(real_t); }

  // Every non-const accessor drops the cached example blocks, since the
  // caller may write through it.
  real_t& at(std::size_t r, std::size_t c) {
    PARSGD_DCHECK(r < rows_ && c < cols_);
    example_blocks_.drop();
    return data_[r * cols_ + c];
  }
  real_t at(std::size_t r, std::size_t c) const {
    PARSGD_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<real_t> row(std::size_t r) {
    PARSGD_DCHECK(r < rows_);
    example_blocks_.drop();
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const real_t> row(std::size_t r) const {
    PARSGD_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<real_t> data() {
    example_blocks_.drop();
    return data_;
  }
  std::span<const real_t> data() const { return data_; }

  /// Sets every element to `v`.
  void fill(real_t v) {
    example_blocks_.drop();
    data_.assign(data_.size(), v);
  }

  /// The rows as example blocks of `lanes` (>= 1), built on first use and
  /// cached with the matrix, one layout per lane count. Safe to request
  /// from several threads at once. Not part of the value (operator==): a
  /// copy or assignment starts without one, and a non-const access drops
  /// it. A write through a span taken before the request is not seen.
  const DenseExampleBlocks& example_blocks(std::size_t lanes) const {
    return example_blocks_.get(*this, lanes);
  }

  bool operator==(const DenseMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

 private:
  /// Lazily built slot for example_blocks(), like CsrMatrix's band slot.
  class ExampleBlocksSlot {
   public:
    ExampleBlocksSlot() = default;
    ExampleBlocksSlot(const ExampleBlocksSlot&) noexcept {}
    ExampleBlocksSlot& operator=(const ExampleBlocksSlot&) {
      drop();
      return *this;
    }
    const DenseExampleBlocks& get(const DenseMatrix& m,
                                  std::size_t lanes) const;
    /// Clears the cache. Costs one atomic load when it is empty.
    void drop() {
      if (!cached_.load()) return;
      const std::lock_guard<std::mutex> lock(mu_);
      layouts_.clear();
      cached_.store(false);
    }

   private:
    mutable std::mutex mu_;  ///< guards layouts_
    mutable std::vector<std::unique_ptr<const DenseExampleBlocks>> layouts_;
    mutable std::atomic<bool> cached_{false};  ///< !layouts_.empty()
  };

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<real_t> data_;
  ExampleBlocksSlot example_blocks_;
};

}  // namespace parsgd
