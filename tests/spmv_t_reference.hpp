// Reference forms for the transposed spmv and the sparse full-batch
// epoch, kept in the tests so the band products of CpuBackend can be
// checked against the scatter arithmetic bit for bit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "matrix/csr_matrix.hpp"

namespace parsgd::testing_ref {

/// A^T x in the scatter-and-merge form: the rows are split into
/// clamp(m / 64, 1, 8) even chunks; chunk c scatters its rows (skipping
/// x[r] == 0) into its own zeroed float buffer, and the buffers merge
/// into chunk 0's in chunk order.
inline std::vector<real_t> scatter_spmv_t(const CsrMatrix& a,
                                          std::span<const real_t> x) {
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t chunks = std::clamp<std::size_t>(m / 64, 1, 8);
  const std::size_t base = m / chunks, extra = m % chunks;
  std::vector<std::vector<real_t>> buf(chunks, std::vector<real_t>(n, 0));
  for (std::size_t c = 0, r = 0; c < chunks; ++c) {
    const std::size_t rhi = r + base + (c < extra ? 1 : 0);
    for (; r < rhi; ++r) {
      const real_t s = x[r];
      if (s == real_t(0)) continue;
      const auto rv = a.row(r);
      for (std::size_t k = 0; k < rv.nnz(); ++k) {
        buf[c][rv.idx[k]] += s * rv.val[k];
      }
    }
  }
  for (std::size_t c = 1; c < chunks; ++c) {
    for (std::size_t j = 0; j < n; ++j) buf[0][j] += buf[c][j];
  }
  return buf[0];
}

/// y += alpha * g, the axpy kernel's float mul-then-add.
inline void axpy(real_t alpha, std::span<const real_t> g,
                 std::span<real_t> y) {
  for (std::size_t j = 0; j < y.size(); ++j) y[j] += alpha * g[j];
}

/// Bit patterns, so -0 vs +0 and NaNs compare exactly.
inline std::vector<std::uint32_t> bits(std::span<const real_t> v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return out;
}

/// A rows x cols CSR that never touches columns j % 3 == 0, with normal
/// values of which about one in ten is an explicit zero.
inline CsrMatrix sparse_with_gaps(std::size_t rows, std::size_t cols,
                                  double density, Rng& rng) {
  CsrMatrix::Builder b(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t j = 0; j < cols; ++j) {
      if (j % 3 == 0 || !rng.bernoulli(density)) continue;
      idx.push_back(j);
      val.push_back(rng.bernoulli(0.1) ? real_t(0)
                                       : static_cast<real_t>(rng.normal()));
    }
    b.add_row(idx, val);
  }
  return std::move(b).build();
}

/// A CSR with `rows` rows whose touched columns are exactly the first
/// `touched` columns j with j % 3 != 0, and cols = touched * 3 / 2 + 3
/// (so untouched columns lie between and past them). Touched column p
/// always holds row p % rows, and each row draws about density * touched
/// more touched columns at random. Values as in sparse_with_gaps.
inline CsrMatrix sparse_touching(std::size_t rows, std::size_t touched,
                                 double density, Rng& rng) {
  const auto extra = static_cast<std::size_t>(density *
                                              static_cast<double>(touched));
  CsrMatrix::Builder b(touched * 3 / 2 + 3);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::size_t> ps;
    for (std::size_t p = i; p < touched; p += rows) ps.push_back(p);
    for (std::size_t k = 0; k < extra; ++k) {
      ps.push_back(static_cast<std::size_t>(rng.uniform_index(touched)));
    }
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (const std::size_t p : ps) {
      idx.push_back(static_cast<index_t>(p + p / 2 + 1));
      val.push_back(rng.bernoulli(0.1) ? real_t(0)
                                       : static_cast<real_t>(rng.normal()));
    }
    b.add_row(idx, val);
  }
  return std::move(b).build();
}

}  // namespace parsgd::testing_ref
