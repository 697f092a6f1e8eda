// AVX-512F microkernels. This TU is the only place in the tree compiled
// with -mavx512f (plus -ffp-contract=off, see kernels_avx2.cpp for why the
// scalar tails must not contract). Only the F subset is used: 256-bit
// half extraction goes through the bit-preserving f64x4 cast because
// extractf32x8 would need AVX512DQ. The table is constant-initialized —
// querying it executes no AVX-512 instruction.
//
// Same accumulation strategy as AVX2 (see that TU), at twice the width:
// dot / spmv_row keep two 8-lane double partials combined acc0+acc1 then
// lanes low→high; axpy / scale / gemv_t_band stay mul+add in float;
// gemm_tile FMAs exact double-widened products. block_gemm holds up to
// kUnitTile output units x 16 example lanes in registers; block_ger folds
// 8 features per register with separate mul + add, the feature tail
// through masked loads and stores.
#include "kernel/kernels.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <utility>

namespace parsgd::kernel {
namespace {

inline __m256 lo256(__m512 v) { return _mm512_castps512_ps256(v); }
inline __m256 hi256(__m512 v) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}

/// Horizontal sum, lanes low→high — the documented reduction order.
inline double reduce8(__m512d v) {
  alignas(64) double lane[8];
  _mm512_store_pd(lane, v);
  double acc = lane[0];
  for (int i = 1; i < 8; ++i) acc += lane[i];
  return acc;
}

double dot_avx512(const real_t* x, const real_t* y, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(x + i)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(y + i)), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(x + i + 8)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(y + i + 8)),
                           acc1);
  }
  double acc = reduce8(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

void axpy_avx512(real_t alpha, const real_t* x, real_t* y, std::size_t n) {
  const __m512 av = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 prod = _mm512_mul_ps(av, _mm512_loadu_ps(x + i));
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_avx512(real_t* x, real_t alpha, std::size_t n) {
  const __m512 av = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(av, _mm512_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void gemm_tile_avx512(const real_t* a, const real_t* b, std::size_t ldb,
                      double* acc, std::size_t kc, std::size_t nc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const double ad = static_cast<double>(a[p]);
    const __m512d av = _mm512_set1_pd(ad);
    const real_t* brow = b + p * ldb;
    std::size_t j = 0;
    for (; j + 8 <= nc; j += 8) {
      const __m512d bv = _mm512_cvtps_pd(_mm256_loadu_ps(brow + j));
      const __m512d cv = _mm512_loadu_pd(acc + j);
      _mm512_storeu_pd(acc + j, _mm512_fmadd_pd(av, bv, cv));
    }
    for (; j < nc; ++j) acc[j] += ad * static_cast<double>(brow[j]);
  }
}

void gemv_t_band_avx512(const real_t* a, std::size_t lda, std::size_t m,
                        const real_t* x, real_t* y, std::size_t band) {
  for (std::size_t r = 0; r < m; ++r, a += lda) {
    const real_t s = x[r];
    if (s == real_t(0)) continue;
    const __m512 sv = _mm512_set1_ps(s);
    std::size_t j = 0;
    for (; j + 16 <= band; j += 16) {
      const __m512 prod = _mm512_mul_ps(sv, _mm512_loadu_ps(a + j));
      _mm512_storeu_ps(y + j, _mm512_add_ps(_mm512_loadu_ps(y + j), prod));
    }
    for (; j < band; ++j) y[j] += s * a[j];
  }
}

double spmv_row_avx512(const real_t* val, const index_t* idx,
                       std::size_t nnz, const real_t* x) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t k = 0;
  for (; k + 16 <= nnz; k += 16) {
    const __m512i iv = _mm512_loadu_si512(idx + k);
    const __m512 xv = _mm512_i32gather_ps(iv, x, sizeof(real_t));
    const __m512 vv = _mm512_loadu_ps(val + k);
    acc0 = _mm512_fmadd_pd(_mm512_cvtps_pd(lo256(vv)),
                           _mm512_cvtps_pd(lo256(xv)), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_cvtps_pd(hi256(vv)),
                           _mm512_cvtps_pd(hi256(xv)), acc1);
  }
  double acc = reduce8(_mm512_add_pd(acc0, acc1));
  for (; k < nnz; ++k) acc += static_cast<double>(val[k]) * x[idx[k]];
  return acc;
}

constexpr std::size_t kLanes = 16;
/// Output units per register tile: 2 accumulators per unit plus the two
/// widened input halves and a broadcast stay within the 32 zmm registers.
constexpr std::size_t kUnitTile = 12;

template <std::size_t T>
void block_gemm_tile(const real_t* xt, const real_t* w, std::size_t ldw,
                     double* acc, std::size_t k) {
  __m512d lo[T], hi[T];
#pragma GCC unroll 16
  for (std::size_t t = 0; t < T; ++t) {
    lo[t] = _mm512_loadu_pd(acc + t * kLanes);
    hi[t] = _mm512_loadu_pd(acc + t * kLanes + 8);
  }
  for (std::size_t p = 0; p < k; ++p, xt += kLanes, w += ldw) {
    const __m512 xv = _mm512_loadu_ps(xt);
    const __m512d x0 = _mm512_cvtps_pd(lo256(xv));
    const __m512d x1 = _mm512_cvtps_pd(hi256(xv));
#pragma GCC unroll 16
    for (std::size_t t = 0; t < T; ++t) {
      const __m512d wv = _mm512_set1_pd(static_cast<double>(w[t]));
      lo[t] = _mm512_fmadd_pd(x0, wv, lo[t]);
      hi[t] = _mm512_fmadd_pd(x1, wv, hi[t]);
    }
  }
#pragma GCC unroll 16
  for (std::size_t t = 0; t < T; ++t) {
    _mm512_storeu_pd(acc + t * kLanes, lo[t]);
    _mm512_storeu_pd(acc + t * kLanes + 8, hi[t]);
  }
}

template <std::size_t T>
void block_ger_tile(const real_t* x, std::size_t ldx, std::size_t nb,
                    const double* delta, double* g, std::size_t ldg,
                    std::size_t k) {
  for (std::size_t p = 0; p < k; p += 8) {
    const std::size_t rem = std::min<std::size_t>(8, k - p);
    const auto m = static_cast<__mmask8>((1u << rem) - 1);
    __m512d acc[T];
#pragma GCC unroll 16
    for (std::size_t t = 0; t < T; ++t) {
      acc[t] = _mm512_maskz_loadu_pd(m, g + t * ldg + p);
    }
    const real_t* xb = x + p;
    for (std::size_t b = 0; b < nb; ++b, xb += ldx) {
      const __m512d xv =
          _mm512_cvtps_pd(lo256(_mm512_maskz_loadu_ps(m, xb)));
#pragma GCC unroll 16
      for (std::size_t t = 0; t < T; ++t) {
        const __m512d dv = _mm512_set1_pd(delta[t * kLanes + b]);
        acc[t] = _mm512_add_pd(acc[t], _mm512_mul_pd(xv, dv));
      }
    }
#pragma GCC unroll 16
    for (std::size_t t = 0; t < T; ++t) {
      _mm512_mask_storeu_pd(g + t * ldg + p, m, acc[t]);
    }
  }
}

using GemmTileFn = void (*)(const real_t*, const real_t*, std::size_t,
                            double*, std::size_t);
using GerTileFn = void (*)(const real_t*, std::size_t, std::size_t,
                           const double*, double*, std::size_t, std::size_t);

/// Tile kernels for widths 1..kUnitTile, indexed by width - 1.
template <std::size_t... I>
constexpr std::array<GemmTileFn, sizeof...(I)> gemm_tiles(
    std::index_sequence<I...>) {
  return {&block_gemm_tile<I + 1>...};
}
template <std::size_t... I>
constexpr std::array<GerTileFn, sizeof...(I)> ger_tiles(
    std::index_sequence<I...>) {
  return {&block_ger_tile<I + 1>...};
}
constexpr auto kGemmTiles = gemm_tiles(std::make_index_sequence<kUnitTile>{});
constexpr auto kGerTiles = ger_tiles(std::make_index_sequence<kUnitTile>{});

void block_gemm_avx512(const real_t* xt, const real_t* w, std::size_t ldw,
                       double* acc, std::size_t k, std::size_t n) {
  for (std::size_t j = 0; j < n; j += kUnitTile) {
    kGemmTiles[std::min(kUnitTile, n - j) - 1](xt, w + j, ldw,
                                               acc + j * kLanes, k);
  }
}

void block_ger_avx512(const real_t* x, std::size_t ldx, std::size_t nb,
                      const double* delta, double* g, std::size_t ldg,
                      std::size_t k, std::size_t n) {
  for (std::size_t j = 0; j < n; j += kUnitTile) {
    kGerTiles[std::min(kUnitTile, n - j) - 1](
        x, ldx, nb, delta + j * kLanes, g + j * ldg, ldg, k);
  }
}

constexpr Kernels kAvx512Table = {
    KernelVariant::kAvx512, kLanes,       dot_avx512,
    axpy_avx512,            scale_avx512, gemm_tile_avx512,
    gemv_t_band_avx512,     spmv_row_avx512, block_gemm_avx512,
    block_ger_avx512,
};

}  // namespace

const Kernels* avx512_kernels() { return &kAvx512Table; }

}  // namespace parsgd::kernel

#else  // toolchain without AVX-512F support for this TU

namespace parsgd::kernel {
const Kernels* avx512_kernels() { return nullptr; }
}  // namespace parsgd::kernel

#endif
