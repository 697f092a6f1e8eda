// SIMD microkernel layer with runtime dispatch (DESIGN.md §14).
//
// The dense inner kernels of the CPU backend — dot, axpy, scale, the GEMM
// micro-tile, transposed-gemv column bands and the CSR spmv row product —
// and the two inner loops of the blocked MLP step (the examples-in-lanes
// block GEMM, which also takes the linear models' dense margins, and the
// block outer-product gradient) exist in three flavors: baseline scalar
// (portable, the seed arithmetic), AVX2+FMA, and AVX-512F. Each flavor lives in its own translation unit compiled with
// exactly the `-m` flags it needs (no global arch flags), so one binary
// carries all variants and selects once at startup by CPUID feature
// detection. `CpuBackend` routes every hot path through the table
// returned by `active_kernels()`; `Mlp` runs its blocks through it.
//
// Determinism contract (the `det=` spec key):
//  * Elementwise and per-output-element kernels (axpy, scale, gemv_t_band,
//    gemm_tile, block_gemm, block_ger) are **bit-identical across all
//    variants** by construction: axpy/scale/gemv_t_band/block_ger
//    vectorize with separate mul+add (never fused, the SIMD TUs build with
//    -ffp-contract=off), and gemm_tile/block_gemm accumulate float
//    products in double — a float*float product is exact in double, so
//    per-element FMA and mul+add round identically and the k-order is
//    unchanged. Every variant reproduces the scalar arithmetic bit for
//    bit.
//  * Reduction kernels (dot, spmv_row) change the combine order when
//    vectorized: lane-wise partial accumulators are merged in a fixed,
//    documented order that depends only on the length (accumulator 0+1,
//    then 2+3, then pairwise, then lanes low→high) — never on alignment,
//    thread count or pool size. Results are therefore deterministic and
//    pool-size-invariant, but differ from the scalar order at double
//    rounding scale. `deterministic = true` pins these two kernels to the
//    scalar variant so trajectories stay bit-identical to the seed.
#pragma once

#include <cstddef>
#include <string>

#include "matrix/types.hpp"

namespace parsgd::kernel {

enum class KernelVariant { kScalar, kAvx2, kAvx512 };

const char* to_string(KernelVariant v);

/// The microkernel table. All pointers are always non-null.
struct Kernels {
  KernelVariant variant;
  /// Float lanes per vector register (1 / 8 / 16) — the unit the
  /// equivalence tests build their awkward-shape grids from, and the
  /// example block of block_gemm / block_ger.
  std::size_t lanes;

  /// sum_i (double)x[i] * (double)y[i]. Reduction kernel: vector variants
  /// use lane partial accumulators (see determinism contract above).
  double (*dot)(const real_t* x, const real_t* y, std::size_t n);

  /// y[i] += alpha * x[i]. Bit-identical across variants (mul+add).
  void (*axpy)(real_t alpha, const real_t* x, real_t* y, std::size_t n);

  /// x[i] *= alpha. Bit-identical across variants.
  void (*scale)(real_t* x, real_t alpha, std::size_t n);

  /// GEMM micro-tile: acc[j] += (double)a[p] * (double)b[p*ldb + j] for
  /// p in [0,kc), j in [0,nc), folding p in increasing order per j.
  /// Bit-identical across variants (exact double products, same k-order).
  void (*gemm_tile)(const real_t* a, const real_t* b, std::size_t ldb,
                    double* acc, std::size_t kc, std::size_t nc);

  /// Transposed-gemv column band: y[j] += x[r] * a[r*lda + j] for
  /// r in [0,m), j in [0,band), rows folded in increasing r order
  /// (rows with x[r] == 0 are skipped, preserving the seed's signed-zero
  /// behaviour). Bit-identical across variants (mul+add per lane).
  void (*gemv_t_band)(const real_t* a, std::size_t lda, std::size_t m,
                      const real_t* x, real_t* y, std::size_t band);

  /// CSR row product: sum_k (double)val[k] * (double)x[idx[k]].
  /// Reduction kernel (vector variants gather + lane partials).
  double (*spmv_row)(const real_t* val, const index_t* idx, std::size_t nnz,
                     const real_t* x);

  /// Examples-in-lanes block GEMM (the MLP input layer over a block of
  /// `lanes` examples, and with n = 1 the linear models' dense margins,
  /// linalg::dense_row_dots): acc[j*lanes + b] += (double)xt[p*lanes + b]
  /// * (double)w[p*ldw + j] for p in [0,k), j in [0,n), b in [0,lanes),
  /// folding p in increasing order per (j, b). `xt` is the block
  /// transposed (feature-major, DenseExampleBlocks). Bit-identical across
  /// variants (exact double products, same p-order: the gemm_tile
  /// argument).
  void (*block_gemm)(const real_t* xt, const real_t* w, std::size_t ldw,
                     double* acc, std::size_t k, std::size_t n);

  /// Block outer-product gradient (the MLP input layer's weight gradient):
  /// g[j*ldg + p] += (double)x[b*ldx + p] * delta[j*lanes + b] for
  /// j in [0,n), p in [0,k), folding the examples b in [0,nb) in
  /// increasing order per entry; nb <= lanes. The products are not exact,
  /// so every variant does a separate mul and add per lane: bit-identical
  /// across variants.
  void (*block_ger)(const real_t* x, std::size_t ldx, std::size_t nb,
                    const double* delta, double* g, std::size_t ldg,
                    std::size_t k, std::size_t n);
};

/// CPUID-detected host features relevant to the dispatch decision.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// Queries CPUID once (cached). Includes the OS-support (XGETBV) check via
/// the compiler runtime, so a reported feature is safe to execute.
const CpuFeatures& detect_cpu_features();

/// Short name of the detected ISA tier: "avx512f", "avx2+fma", "baseline".
std::string isa_name(const CpuFeatures& f);

/// The scalar reference table — always available, always the seed
/// arithmetic.
const Kernels& scalar_kernels();

/// Variant tables from their dedicated TUs; nullptr when the toolchain
/// could not compile that variant (non-x86 hosts, missing -m support).
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();

/// True when `v` is both compiled in and executable on this CPU.
bool variant_available(KernelVariant v);

/// Comma-separated list of compiled-in variants, e.g. "scalar,avx2,avx512".
std::string compiled_variants();

/// The variant `active_kernels()` resolves to: the best available tier,
/// downgraded by the environment —
///   PARSGD_FORCE_SCALAR=1          force the scalar reference kernels;
///   PARSGD_KERNEL_VARIANT=<name>   scalar | avx2 | avx512 (clamped to the
///                                  best available tier at or below it).
KernelVariant selected_variant();

/// The table for `v`, falling back to the next lower available tier
/// (ultimately scalar) when `v` is unavailable.
const Kernels& kernels(KernelVariant v);

/// The startup-selected table every CpuBackend routes through. Resolved
/// once (thread-safe static); the env overrides are read at first call.
const Kernels& active_kernels();

/// One-line dispatch summary for --build-info and report provenance,
/// e.g. "avx512 (host avx512f; compiled scalar,avx2,avx512)".
std::string dispatch_summary();

}  // namespace parsgd::kernel
