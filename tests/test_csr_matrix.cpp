#include "matrix/csr_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "matrix/transform.hpp"

namespace parsgd {
namespace {

CsrMatrix small() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 0 3 0 ]
  CsrMatrix::Builder b(3);
  const index_t i0[] = {0, 2};
  const real_t v0[] = {1, 2};
  b.add_row(i0, v0);
  b.add_row({}, {});
  const index_t i2[] = {1};
  const real_t v2[] = {3};
  b.add_row(i2, v2);
  return std::move(b).build();
}

TEST(CsrMatrix, BasicShape) {
  const CsrMatrix m = small();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_nnz(1), 0u);
  EXPECT_EQ(m.row_nnz(2), 1u);
}

TEST(CsrMatrix, RowView) {
  const CsrMatrix m = small();
  const auto r0 = m.row(0);
  ASSERT_EQ(r0.nnz(), 2u);
  EXPECT_EQ(r0.idx[0], 0u);
  EXPECT_EQ(r0.idx[1], 2u);
  EXPECT_EQ(r0.val[0], 1);
  EXPECT_EQ(r0.val[1], 2);
}

TEST(CsrMatrix, UnsortedInputGetsSorted) {
  CsrMatrix::Builder b(4);
  const index_t idx[] = {3, 0, 2};
  const real_t val[] = {30, 0.5, 20};
  b.add_row(idx, val);
  const CsrMatrix m = std::move(b).build();
  const auto r = m.row(0);
  EXPECT_EQ(r.idx[0], 0u);
  EXPECT_EQ(r.val[0], real_t(0.5));
  EXPECT_EQ(r.idx[2], 3u);
  EXPECT_EQ(r.val[2], real_t(30));
}

TEST(CsrMatrix, DuplicateColumnRejected) {
  CsrMatrix::Builder b(4);
  const index_t idx[] = {1, 1};
  const real_t val[] = {1, 2};
  EXPECT_THROW(b.add_row(idx, val), CheckError);
}

TEST(CsrMatrix, OutOfRangeColumnRejected) {
  CsrMatrix::Builder b(2);
  const index_t idx[] = {2};
  const real_t val[] = {1};
  EXPECT_THROW(b.add_row(idx, val), CheckError);
}

TEST(CsrMatrix, SortedRowCopiedAsIs) {
  CsrMatrix::Builder b(5);
  const index_t idx[] = {0, 2, 4};
  const real_t val[] = {1, 2, 3};
  b.add_row(idx, val);
  b.add_row({}, {});
  const CsrMatrix m = std::move(b).build();
  ASSERT_EQ(m.rows(), 2u);
  const auto r = m.row(0);
  ASSERT_EQ(r.nnz(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(r.idx[k], idx[k]);
    EXPECT_EQ(r.val[k], val[k]);
  }
  EXPECT_EQ(m.row_nnz(1), 0u);
}

TEST(CsrMatrix, BadColumnsRejectedOnBothPaths) {
  // Increasing rows take the copy path, the others the argsort path.
  const std::vector<std::vector<index_t>> bad = {
      {1, 4},     // increasing, out of range
      {4, 1},     // unsorted, out of range
      {0, 2, 2},  // non-decreasing duplicate
      {2, 0, 2},  // unsorted duplicate
  };
  for (const auto& idx : bad) {
    CsrMatrix::Builder b(4);
    const std::vector<real_t> val(idx.size(), 1);
    EXPECT_THROW(b.add_row(idx, val), CheckError) << idx.size();
  }
  CsrMatrix::Builder b(4);
  const index_t idx[] = {0, 1};
  const real_t val[] = {1};
  EXPECT_THROW(b.add_row(idx, val), CheckError);
}

TEST(CsrMatrix, AdoptsValidArrays) {
  const CsrMatrix m(3, {0, 2, 2, 3}, {0, 2, 1}, {1, 2, 3});
  EXPECT_TRUE(m == small());
  const CsrMatrix empty(7, {0}, {}, {});
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 7u);
}

TEST(CsrMatrix, AdoptRejectsMalformedArrays) {
  using Ptr = std::vector<offset_t>;
  using Idx = std::vector<index_t>;
  using Val = std::vector<real_t>;
  // Bad row pointers.
  EXPECT_THROW(CsrMatrix(3, Ptr{}, Idx{}, Val{}), CheckError);
  EXPECT_THROW(CsrMatrix(3, Ptr{1, 2}, Idx{0, 1}, Val{1, 2}), CheckError);
  EXPECT_THROW(CsrMatrix(3, Ptr{0, 1}, Idx{0, 1}, Val{1, 2}), CheckError);
  EXPECT_THROW(CsrMatrix(3, Ptr{0, 3, 2}, Idx{0, 1}, Val{1, 2}), CheckError);
  EXPECT_THROW(CsrMatrix(3, Ptr{0, 2, 1, 2}, Idx{0, 1}, Val{1, 2}),
               CheckError);
  // Values that do not match the columns.
  EXPECT_THROW(CsrMatrix(3, Ptr{0, 2}, Idx{0, 1}, Val{1}), CheckError);
  // Unsorted row, duplicate column, column out of range.
  EXPECT_THROW(CsrMatrix(3, Ptr{0, 2}, Idx{1, 0}, Val{1, 2}), CheckError);
  EXPECT_THROW(CsrMatrix(3, Ptr{0, 2}, Idx{1, 1}, Val{1, 2}), CheckError);
  EXPECT_THROW(CsrMatrix(3, Ptr{0, 2}, Idx{0, 3}, Val{1, 2}), CheckError);
  // A decrease between rows is fine: each row is checked on its own.
  EXPECT_NO_THROW(CsrMatrix(3, Ptr{0, 1, 2}, Idx{2, 0}, Val{1, 2}));
}

TEST(CsrMatrix, DenseRoundTrip) {
  const CsrMatrix m = small();
  const DenseMatrix d = m.to_dense();
  EXPECT_EQ(d.at(0, 0), 1);
  EXPECT_EQ(d.at(0, 2), 2);
  EXPECT_EQ(d.at(1, 1), 0);
  EXPECT_EQ(d.at(2, 1), 3);
  const CsrMatrix back = CsrMatrix::from_dense(d);
  EXPECT_TRUE(back == m);
}

TEST(CsrMatrix, ToDenseBudgetGuard) {
  const CsrMatrix m = small();
  EXPECT_THROW(m.to_dense(/*max_bytes=*/8), CheckError);
}

TEST(CsrMatrix, Density) {
  const CsrMatrix m = small();
  EXPECT_NEAR(m.density(), 3.0 / 9.0, 1e-12);
}

TEST(CsrMatrix, BytesAccounting) {
  const CsrMatrix m = small();
  EXPECT_EQ(m.dense_bytes(), 9 * sizeof(real_t));
  EXPECT_EQ(m.bytes(), 4 * sizeof(offset_t) + 3 * sizeof(index_t) +
                           3 * sizeof(real_t));
}

TEST(CsrMatrix, DenseRowBuilderDropsZeros) {
  CsrMatrix::Builder b(3);
  const real_t row[] = {0, 5, 0};
  b.add_dense_row(row);
  const CsrMatrix m = std::move(b).build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.row(0).idx[0], 1u);
}

TEST(CsrMatrix, SliceRows) {
  const CsrMatrix m = small();
  const CsrMatrix s = slice_rows(m, 1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_EQ(s.row_nnz(0), 0u);
  EXPECT_EQ(s.row(1).idx[0], 1u);
}

TEST(DenseMatrixSlice, SliceRows) {
  DenseMatrix m(3, 2);
  m.at(2, 1) = 7;
  const DenseMatrix s = slice_rows(m, 2, 3);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_EQ(s.at(0, 1), real_t(7));
}

TEST(CsrMatrix, EqualityIgnoresNothing) {
  EXPECT_TRUE(small() == small());
  CsrMatrix::Builder b(3);
  b.add_row({}, {});
  EXPECT_FALSE(small() == std::move(b).build());
}

}  // namespace
}  // namespace parsgd
