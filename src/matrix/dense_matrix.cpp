#include "matrix/dense_matrix.hpp"

namespace parsgd {

const DenseExampleBlocks& DenseMatrix::ExampleBlocksSlot::get(
    const DenseMatrix& m, std::size_t lanes) const {
  PARSGD_CHECK(lanes >= 1);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& eb : layouts_) {
    if (eb->lanes == lanes) return *eb;
  }
  auto eb = std::make_unique<DenseExampleBlocks>();
  eb->lanes = lanes;
  eb->cols = m.cols_;
  const std::size_t blocks = (m.rows_ + lanes - 1) / lanes;
  eb->vals.assign(blocks * lanes * m.cols_, real_t(0));
  for (std::size_t r = 0; r < m.rows_; ++r) {
    const real_t* row = m.data_.data() + r * m.cols_;
    real_t* lane = eb->vals.data() + (r - r % lanes) * m.cols_ + r % lanes;
    for (std::size_t p = 0; p < m.cols_; ++p) lane[p * lanes] = row[p];
  }
  layouts_.push_back(std::move(eb));
  cached_.store(true);
  return *layouts_.back();
}

}  // namespace parsgd
