// AVX2+FMA microkernels. This TU is the only place in the tree compiled
// with -mavx2 -mfma (plus -ffp-contract=off so the scalar tail loops are
// never silently contracted into FMAs — they must round exactly like the
// scalar reference TU). The table below is constant-initialized, so merely
// linking or querying it executes no AVX instruction; the kernels
// themselves run only after dispatch confirmed CPUID support.
//
// Accumulation strategy (see kernels.hpp determinism contract):
//  * dot / spmv_row widen floats to double and keep two 4-lane double
//    partial accumulators; the combine order is acc0+acc1, then lanes
//    low→high — a function of the length only.
//  * axpy / scale / gemv_t_band stay in float with separate mul+add, which
//    is lane-for-lane the scalar arithmetic.
//  * gemm_tile broadcasts (double)a[p] and FMAs over double-widened B
//    lanes; float products are exact in double, so the single rounding of
//    the FMA equals the scalar add's rounding — bit-identical.
//  * block_gemm holds a tile of up to kUnitTile output units x 8 example
//    lanes in registers (two 4-lane double accumulators per unit) and FMAs
//    the widened input lanes against a broadcast weight — exact products,
//    as in gemm_tile. block_ger keeps a tile of gradient rows x 4 features
//    in registers and folds the examples with separate mul + add.
#include "kernel/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <utility>

namespace parsgd::kernel {
namespace {

/// Horizontal sum, lanes low→high — the documented reduction order.
inline double reduce4(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

inline __m256d widen_lo(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
inline __m256d widen_hi(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

double dot_avx2(const real_t* x, const real_t* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    acc0 = _mm256_fmadd_pd(widen_lo(xv), widen_lo(yv), acc0);
    acc1 = _mm256_fmadd_pd(widen_hi(xv), widen_hi(yv), acc1);
  }
  double acc = reduce4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

void axpy_avx2(real_t alpha, const real_t* x, real_t* y, std::size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_avx2(real_t* x, real_t alpha, std::size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void gemm_tile_avx2(const real_t* a, const real_t* b, std::size_t ldb,
                    double* acc, std::size_t kc, std::size_t nc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const double ad = static_cast<double>(a[p]);
    const __m256d av = _mm256_set1_pd(ad);
    const real_t* brow = b + p * ldb;
    std::size_t j = 0;
    for (; j + 8 <= nc; j += 8) {
      const __m256 bv = _mm256_loadu_ps(brow + j);
      const __m256d c0 = _mm256_loadu_pd(acc + j);
      const __m256d c1 = _mm256_loadu_pd(acc + j + 4);
      _mm256_storeu_pd(acc + j, _mm256_fmadd_pd(av, widen_lo(bv), c0));
      _mm256_storeu_pd(acc + j + 4, _mm256_fmadd_pd(av, widen_hi(bv), c1));
    }
    for (; j < nc; ++j) acc[j] += ad * static_cast<double>(brow[j]);
  }
}

void gemv_t_band_avx2(const real_t* a, std::size_t lda, std::size_t m,
                      const real_t* x, real_t* y, std::size_t band) {
  for (std::size_t r = 0; r < m; ++r, a += lda) {
    const real_t s = x[r];
    if (s == real_t(0)) continue;
    const __m256 sv = _mm256_set1_ps(s);
    std::size_t j = 0;
    for (; j + 8 <= band; j += 8) {
      const __m256 prod = _mm256_mul_ps(sv, _mm256_loadu_ps(a + j));
      _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_loadu_ps(y + j), prod));
    }
    for (; j < band; ++j) y[j] += s * a[j];
  }
}

double spmv_row_avx2(const real_t* val, const index_t* idx, std::size_t nnz,
                     const real_t* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= nnz; k += 8) {
    const __m256i iv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + k));
    const __m256 xv = _mm256_i32gather_ps(x, iv, sizeof(real_t));
    const __m256 vv = _mm256_loadu_ps(val + k);
    acc0 = _mm256_fmadd_pd(widen_lo(vv), widen_lo(xv), acc0);
    acc1 = _mm256_fmadd_pd(widen_hi(vv), widen_hi(xv), acc1);
  }
  double acc = reduce4(_mm256_add_pd(acc0, acc1));
  for (; k < nnz; ++k) acc += static_cast<double>(val[k]) * x[idx[k]];
  return acc;
}

constexpr std::size_t kLanes = 8;
/// Output units per register tile: 2 accumulators per unit plus the two
/// widened input halves and a broadcast fit the 16 ymm registers.
constexpr std::size_t kUnitTile = 6;

template <std::size_t T>
void block_gemm_tile(const real_t* xt, const real_t* w, std::size_t ldw,
                     double* acc, std::size_t k) {
  __m256d lo[T], hi[T];
#pragma GCC unroll 16
  for (std::size_t t = 0; t < T; ++t) {
    lo[t] = _mm256_loadu_pd(acc + t * kLanes);
    hi[t] = _mm256_loadu_pd(acc + t * kLanes + 4);
  }
  for (std::size_t p = 0; p < k; ++p, xt += kLanes, w += ldw) {
    const __m256 xv = _mm256_loadu_ps(xt);
    const __m256d x0 = widen_lo(xv);
    const __m256d x1 = widen_hi(xv);
#pragma GCC unroll 16
    for (std::size_t t = 0; t < T; ++t) {
      const __m256d wv = _mm256_set1_pd(static_cast<double>(w[t]));
      lo[t] = _mm256_fmadd_pd(x0, wv, lo[t]);
      hi[t] = _mm256_fmadd_pd(x1, wv, hi[t]);
    }
  }
#pragma GCC unroll 16
  for (std::size_t t = 0; t < T; ++t) {
    _mm256_storeu_pd(acc + t * kLanes, lo[t]);
    _mm256_storeu_pd(acc + t * kLanes + 4, hi[t]);
  }
}

template <std::size_t T>
void block_ger_tile(const real_t* x, std::size_t ldx, std::size_t nb,
                    const double* delta, double* g, std::size_t ldg,
                    std::size_t k) {
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    __m256d acc[T];
#pragma GCC unroll 16
    for (std::size_t t = 0; t < T; ++t) {
      acc[t] = _mm256_loadu_pd(g + t * ldg + p);
    }
    const real_t* xb = x + p;
    for (std::size_t b = 0; b < nb; ++b, xb += ldx) {
      const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(xb));
#pragma GCC unroll 16
      for (std::size_t t = 0; t < T; ++t) {
        const __m256d dv = _mm256_set1_pd(delta[t * kLanes + b]);
        acc[t] = _mm256_add_pd(acc[t], _mm256_mul_pd(xv, dv));
      }
    }
#pragma GCC unroll 16
    for (std::size_t t = 0; t < T; ++t) {
      _mm256_storeu_pd(g + t * ldg + p, acc[t]);
    }
  }
  for (; p < k; ++p) {
    for (std::size_t t = 0; t < T; ++t) {
      double a = g[t * ldg + p];
      for (std::size_t b = 0; b < nb; ++b) {
        a += static_cast<double>(x[b * ldx + p]) * delta[t * kLanes + b];
      }
      g[t * ldg + p] = a;
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

void block_gemm_avx2(const real_t* xt, const real_t* w, std::size_t ldw,
                     double* acc, std::size_t k, std::size_t n) {
  for (std::size_t j = 0; j < n; j += kUnitTile) {
    kGemmTiles[std::min(kUnitTile, n - j) - 1](xt, w + j, ldw,
                                               acc + j * kLanes, k);
  }
}

void block_ger_avx2(const real_t* x, std::size_t ldx, std::size_t nb,
                    const double* delta, double* g, std::size_t ldg,
                    std::size_t k, std::size_t n) {
  for (std::size_t j = 0; j < n; j += kUnitTile) {
    kGerTiles[std::min(kUnitTile, n - j) - 1](x, ldx, nb, delta + j * kLanes,
                                              g + j * ldg, ldg, k);
  }
}

constexpr Kernels kAvx2Table = {
    KernelVariant::kAvx2, kLanes,     dot_avx2,
    axpy_avx2,            scale_avx2, gemm_tile_avx2,
    gemv_t_band_avx2,     spmv_row_avx2, block_gemm_avx2,
    block_ger_avx2,
};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Table; }

}  // namespace parsgd::kernel

#else  // toolchain without AVX2 support for this TU

namespace parsgd::kernel {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace parsgd::kernel

#endif
