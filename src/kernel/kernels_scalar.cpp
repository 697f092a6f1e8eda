// Baseline scalar microkernels — the seed arithmetic, bit for bit. Every
// other variant is tested against this TU (tests/test_kernels.cpp), and
// the deterministic path pins its reduction kernels to these. Compiled
// with the project's default flags only: the x86-64 baseline has no FMA,
// so the compiler cannot contract the mul+add pairs below.
#include "kernel/kernels.hpp"

namespace parsgd::kernel {
namespace {

double dot_scalar(const real_t* x, const real_t* y, std::size_t n) {
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

void axpy_scalar(real_t alpha, const real_t* x, real_t* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_scalar(real_t* x, real_t alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void gemm_tile_scalar(const real_t* a, const real_t* b, std::size_t ldb,
                      double* acc, std::size_t kc, std::size_t nc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const double av = static_cast<double>(a[p]);
    const real_t* brow = b + p * ldb;
    for (std::size_t j = 0; j < nc; ++j) {
      acc[j] += av * static_cast<double>(brow[j]);
    }
  }
}

void gemv_t_band_scalar(const real_t* a, std::size_t lda, std::size_t m,
                        const real_t* x, real_t* y, std::size_t band) {
  for (std::size_t r = 0; r < m; ++r, a += lda) {
    const real_t s = x[r];
    if (s == real_t(0)) continue;
    for (std::size_t j = 0; j < band; ++j) y[j] += s * a[j];
  }
}

double spmv_row_scalar(const real_t* val, const index_t* idx,
                       std::size_t nnz, const real_t* x) {
  double acc = 0;
  for (std::size_t k = 0; k < nnz; ++k)
    acc += static_cast<double>(val[k]) * x[idx[k]];
  return acc;
}

// One lane: the block holds at most one example, and delta[j] is its
// j-th entry.
void block_ger_scalar(const real_t* x, std::size_t /*ldx*/, std::size_t nb,
                      const double* delta, double* g, std::size_t ldg,
                      std::size_t k, std::size_t n) {
  if (nb == 0) return;
  for (std::size_t j = 0; j < n; ++j, g += ldg) {
    const double dj = delta[j];
    for (std::size_t p = 0; p < k; ++p) {
      g[p] += static_cast<double>(x[p]) * dj;
    }
  }
}

// With one lane the block GEMM is the GEMM micro-tile over the block's
// single example, so gemm_tile_scalar fills both slots.
constexpr Kernels kScalarTable = {
    KernelVariant::kScalar, 1,           dot_scalar,
    axpy_scalar,            scale_scalar, gemm_tile_scalar,
    gemv_t_band_scalar,     spmv_row_scalar, gemm_tile_scalar,
    block_ger_scalar,
};

}  // namespace

const Kernels& scalar_kernels() { return kScalarTable; }

}  // namespace parsgd::kernel
