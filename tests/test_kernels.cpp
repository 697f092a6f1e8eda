// Kernel-equivalence suite for the SIMD microkernel layer (DESIGN.md
// §14). Every compiled variant (avx2, avx512 when the toolchain built
// them AND the host can run them) is checked against the scalar
// reference on a grid of awkward shapes: lengths 0, 1, lane-1, lane,
// lane+1 and 2*lane+3 crossed with unaligned base offsets 0-3, so both
// the vector body and the scalar tail of each kernel are exercised from
// misaligned pointers.
//
// The determinism contract splits the kernels in two:
//  * axpy / scale / gemv_t_band / gemm_tile must be BIT-IDENTICAL to
//    scalar (EXPECT_EQ on the raw floats) — mul+add vectorization and
//    exact double products make every variant round identically. The
//    block kernels (block_gemm / block_ger) lay a block out by the
//    variant's own lane count, so each is held bit for bit to a naive
//    loop over that layout instead.
//  * dot / spmv_row reorder the reduction; they get a tight relative
//    tolerance instead, and `det=on` (CpuBackendOptions::deterministic)
//    pins them to scalar — verified below at the backend level (bitwise
//    against a naive loop) and end-to-end (pool-size-invariant
//    trajectories through the sync engine).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "data/generator.hpp"
#include "kernel/kernels.hpp"
#include "linalg/cpu_backend.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/spec.hpp"
#include "sgd/sync_engine.hpp"

namespace parsgd {
namespace {

using kernel::KernelVariant;
using kernel::Kernels;

/// All variants that are compiled in AND executable on this host, the
/// scalar reference included (so the suite never silently no-ops).
std::vector<const Kernels*> testable_variants() {
  std::vector<const Kernels*> out = {&kernel::scalar_kernels()};
  if (kernel::variant_available(KernelVariant::kAvx2)) {
    out.push_back(kernel::avx2_kernels());
  }
  if (kernel::variant_available(KernelVariant::kAvx512)) {
    out.push_back(kernel::avx512_kernels());
  }
  return out;
}

/// Lengths around the lane boundary of `kn` plus 0/1 and a two-vector+
/// tail shape (lanes=1 gets a couple of fixed small sizes instead).
std::vector<std::size_t> boundary_lengths(const Kernels& kn) {
  const std::size_t lane = kn.lanes;
  std::vector<std::size_t> ls = {0, 1};
  if (lane > 1) {
    ls.push_back(lane - 1);
    ls.push_back(lane);
    ls.push_back(lane + 1);
    ls.push_back(2 * lane + 3);
  } else {
    ls.push_back(2);
    ls.push_back(5);
  }
  return ls;
}

/// Deterministic fill with mixed magnitudes and signs; `salt` keeps the
/// streams distinct. Padded so unaligned-offset reads stay in bounds.
std::vector<real_t> random_vec(std::size_t n, std::uint64_t salt,
                               std::size_t pad = 8) {
  Rng rng(0x9e3779b9u ^ salt);
  std::vector<real_t> v(n + pad);
  for (real_t& e : v) {
    e = static_cast<real_t>(rng.uniform(-2.0, 2.0));
  }
  return v;
}

constexpr std::size_t kOffsets[] = {0, 1, 2, 3};

TEST(KernelDispatch, ScalarAlwaysPresent) {
  const Kernels& s = kernel::scalar_kernels();
  EXPECT_EQ(s.variant, KernelVariant::kScalar);
  EXPECT_EQ(s.lanes, 1u);
  EXPECT_NE(s.dot, nullptr);
  EXPECT_NE(s.axpy, nullptr);
  EXPECT_NE(s.scale, nullptr);
  EXPECT_NE(s.gemm_tile, nullptr);
  EXPECT_NE(s.gemv_t_band, nullptr);
  EXPECT_NE(s.spmv_row, nullptr);
  EXPECT_NE(s.block_gemm, nullptr);
  EXPECT_NE(s.block_ger, nullptr);
}

TEST(KernelDispatch, ActiveTableMatchesSelectedVariant) {
  EXPECT_EQ(kernel::active_kernels().variant, kernel::selected_variant());
  EXPECT_TRUE(kernel::variant_available(kernel::selected_variant()));
}

TEST(KernelDispatch, SummariesAreNonEmpty) {
  EXPECT_NE(kernel::compiled_variants().find("scalar"), std::string::npos);
  EXPECT_FALSE(kernel::dispatch_summary().empty());
  EXPECT_FALSE(kernel::isa_name(kernel::detect_cpu_features()).empty());
}

TEST(KernelEquivalence, DotTightTolerance) {
  const Kernels& ref = kernel::scalar_kernels();
  for (const Kernels* kn : testable_variants()) {
    for (std::size_t n : boundary_lengths(*kn)) {
      for (std::size_t off : kOffsets) {
        const auto x = random_vec(n + off, 1);
        const auto y = random_vec(n + off, 2);
        const double want = ref.dot(x.data() + off, y.data() + off, n);
        const double got = kn->dot(x.data() + off, y.data() + off, n);
        // Double accumulation of a few dozen exact float products:
        // reordering moves the sum by at most a few ulp.
        EXPECT_NEAR(got, want, 1e-12 * (1.0 + std::abs(want)))
            << to_string(kn->variant) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, AxpyBitIdentical) {
  const Kernels& ref = kernel::scalar_kernels();
  for (const Kernels* kn : testable_variants()) {
    for (std::size_t n : boundary_lengths(*kn)) {
      for (std::size_t off : kOffsets) {
        const auto x = random_vec(n + off, 3);
        auto want = random_vec(n + off, 4);
        auto got = want;
        const real_t alpha = real_t(-0.37);
        ref.axpy(alpha, x.data() + off, want.data() + off, n);
        kn->axpy(alpha, x.data() + off, got.data() + off, n);
        EXPECT_EQ(got, want)
            << to_string(kn->variant) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, ScaleBitIdentical) {
  const Kernels& ref = kernel::scalar_kernels();
  for (const Kernels* kn : testable_variants()) {
    for (std::size_t n : boundary_lengths(*kn)) {
      for (std::size_t off : kOffsets) {
        auto want = random_vec(n + off, 5);
        auto got = want;
        const real_t alpha = real_t(1.7183);
        ref.scale(want.data() + off, alpha, n);
        kn->scale(got.data() + off, alpha, n);
        EXPECT_EQ(got, want)
            << to_string(kn->variant) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, GemmTileBitIdentical) {
  const Kernels& ref = kernel::scalar_kernels();
  for (const Kernels* kn : testable_variants()) {
    for (std::size_t kc : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
      for (std::size_t nc : boundary_lengths(*kn)) {
        for (std::size_t off : kOffsets) {
          const std::size_t ldb = nc + off + 2;
          const auto a = random_vec(kc + off, 6);
          const auto b = random_vec(kc * ldb + off, 7);
          // Non-zero seed accumulators: the tile must fold into them.
          std::vector<double> want(nc, 0.25), got(nc, 0.25);
          ref.gemm_tile(a.data() + off, b.data() + off, ldb, want.data(),
                        kc, nc);
          kn->gemm_tile(a.data() + off, b.data() + off, ldb, got.data(),
                        kc, nc);
          EXPECT_EQ(got, want) << to_string(kn->variant) << " kc=" << kc
                               << " nc=" << nc << " off=" << off;
        }
      }
    }
  }
}

TEST(KernelEquivalence, GemvTBandBitIdentical) {
  const Kernels& ref = kernel::scalar_kernels();
  for (const Kernels* kn : testable_variants()) {
    for (std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
      for (std::size_t band : boundary_lengths(*kn)) {
        for (std::size_t off : kOffsets) {
          const std::size_t lda = band + off + 3;
          const auto a = random_vec(m * lda + off, 8);
          auto x = random_vec(m + off, 9);
          if (m > 1) x[off + 1] = 0;  // exercise the x[r]==0 row skip
          auto want = random_vec(band + off, 10);
          auto got = want;
          ref.gemv_t_band(a.data() + off, lda, m, x.data() + off,
                          want.data() + off, band);
          kn->gemv_t_band(a.data() + off, lda, m, x.data() + off,
                          got.data() + off, band);
          EXPECT_EQ(got, want) << to_string(kn->variant) << " m=" << m
                               << " band=" << band << " off=" << off;
        }
      }
    }
  }
}

/// Output-unit counts around the register tiles of every variant (6 units
/// for avx2, 12 for avx512) plus the MLP widths.
constexpr std::size_t kUnitCounts[] = {1, 2, 5, 6, 7, 10, 12, 13, 17};

/// Random double vector (block accumulators and deltas).
std::vector<double> random_doubles(std::size_t n, std::uint64_t salt) {
  Rng rng(0x51ed27u ^ salt);
  std::vector<double> v(n);
  for (double& e : v) e = rng.uniform(-2.0, 2.0);
  return v;
}

TEST(KernelEquivalence, BlockGemmBitIdentical) {
  // Reference: per (unit, lane) the naive p-ordered double fold.
  for (const Kernels* kn : testable_variants()) {
    const std::size_t lanes = kn->lanes;
    for (std::size_t k : boundary_lengths(*kn)) {
      for (std::size_t n : kUnitCounts) {
        for (std::size_t off : kOffsets) {
          const std::size_t ldw = n + off + 1;
          const auto xt = random_vec(k * lanes + off, 30);
          const auto w = random_vec(k * ldw + off, 31);
          // Non-zero seed accumulators: the block must fold into them.
          std::vector<double> want = random_doubles(n * lanes, 32);
          std::vector<double> got = want;
          for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t b = 0; b < lanes; ++b) {
              double acc = want[j * lanes + b];
              for (std::size_t p = 0; p < k; ++p) {
                acc += static_cast<double>(xt[off + p * lanes + b]) *
                       static_cast<double>(w[off + p * ldw + j]);
              }
              want[j * lanes + b] = acc;
            }
          }
          kn->block_gemm(xt.data() + off, w.data() + off, ldw, got.data(), k,
                         n);
          EXPECT_EQ(got, want) << to_string(kn->variant) << " k=" << k
                               << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

TEST(KernelEquivalence, BlockGerBitIdentical) {
  // Reference: per gradient entry the examples folded in index order,
  // each product rounded before its add.
  for (const Kernels* kn : testable_variants()) {
    const std::size_t lanes = kn->lanes;
    for (std::size_t k : boundary_lengths(*kn)) {
      for (std::size_t n : kUnitCounts) {
        for (std::size_t nb = 0; nb <= lanes; ++nb) {
          for (std::size_t off : kOffsets) {
            const std::size_t ldx = k + off + 2, ldg = k + off + 3;
            const auto x = random_vec(nb * ldx + off, 33);
            const auto delta = random_doubles(n * lanes, 34);
            std::vector<double> want = random_doubles(n * ldg + off, 35);
            std::vector<double> got = want;
            for (std::size_t j = 0; j < n; ++j) {
              for (std::size_t p = 0; p < k; ++p) {
                double& acc = want[off + j * ldg + p];
                for (std::size_t b = 0; b < nb; ++b) {
                  const real_t xv = x[off + b * ldx + p];
                  acc += static_cast<double>(xv) * delta[j * lanes + b];
                }
              }
            }
            kn->block_ger(x.data() + off, ldx, nb, delta.data(),
                          got.data() + off, ldg, k, n);
            EXPECT_EQ(got, want)
                << to_string(kn->variant) << " k=" << k << " n=" << n
                << " nb=" << nb << " off=" << off;
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, SpmvRowTightTolerance) {
  const Kernels& ref = kernel::scalar_kernels();
  const std::size_t xdim = 257;
  const auto x = random_vec(xdim, 11);
  Rng rng(13);
  for (const Kernels* kn : testable_variants()) {
    for (std::size_t nnz : boundary_lengths(*kn)) {
      for (std::size_t off : kOffsets) {
        const auto val = random_vec(nnz + off, 12);
        std::vector<index_t> idx(nnz + off);
        for (index_t& i : idx) {
          i = static_cast<index_t>(rng.uniform_index(xdim));
        }
        const double want =
            ref.spmv_row(val.data() + off, idx.data() + off, nnz, x.data());
        const double got =
            kn->spmv_row(val.data() + off, idx.data() + off, nnz, x.data());
        EXPECT_NEAR(got, want, 1e-12 * (1.0 + std::abs(want)))
            << to_string(kn->variant) << " nnz=" << nnz << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, EmptyCsrRowIsZero) {
  const real_t* null_val = nullptr;
  const index_t* null_idx = nullptr;
  const real_t x[1] = {real_t(3)};
  for (const Kernels* kn : testable_variants()) {
    EXPECT_EQ(kn->spmv_row(null_val, null_idx, 0, x), 0.0)
        << to_string(kn->variant);
    EXPECT_EQ(kn->dot(null_val, null_val, 0), 0.0) << to_string(kn->variant);
  }
}

// --- Determinism pinning at the backend level ----------------------------

DenseMatrix random_dense(std::size_t r, std::size_t c, std::uint64_t salt) {
  Rng rng(salt);
  DenseMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m.at(i, j) = static_cast<real_t>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

TEST(KernelDeterminism, BackendDotPinnedByFlag) {
  // With det=on the backend's dot must reproduce the scalar reduction
  // order exactly, even when the active dispatch is vectorized.
  const auto x = random_vec(1021, 20);
  const auto y = random_vec(1021, 21);
  CostBreakdown cost;
  linalg::CpuBackend det(linalg::CpuBackendOptions{.deterministic = true});
  det.set_sink(&cost);
  const double want =
      kernel::scalar_kernels().dot(x.data(), y.data(), x.size());
  EXPECT_EQ(det.dot(x, y), want);
}

TEST(KernelDeterminism, BackendGemvMatchesNaiveScalar) {
  // det=on gemv: each y[r] is the scalar-order double accumulation —
  // bitwise equal to the naive loop no matter which SIMD tier is live.
  const DenseMatrix a = random_dense(19, 37, 22);
  const auto x = random_vec(37, 23, /*pad=*/0);
  std::vector<real_t> y(19);
  CostBreakdown cost;
  linalg::CpuBackend det(linalg::CpuBackendOptions{.deterministic = true});
  det.set_sink(&cost);
  det.gemv(a, x, y, /*transpose=*/false);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      acc += static_cast<double>(a.at(r, j)) * static_cast<double>(x[j]);
    }
    ASSERT_EQ(y[r], static_cast<real_t>(acc)) << "row " << r;
  }
}

TEST(KernelDeterminism, BackendGemmMatchesNaiveReference) {
  // gemm is bit-identical in BOTH modes (exact double products, fixed
  // k-order); shapes cross the Nc=64 / Kc=128 blocking boundaries.
  const DenseMatrix a = random_dense(5, 150, 24);
  const DenseMatrix b = random_dense(150, 70, 25);
  for (const bool deterministic : {true, false}) {
    DenseMatrix c(5, 70);
    CostBreakdown cost;
    linalg::CpuBackend be(
        linalg::CpuBackendOptions{.deterministic = deterministic});
    be.set_sink(&cost);
    be.gemm(a, b, c, false, false);
    for (std::size_t i = 0; i < c.rows(); ++i) {
      for (std::size_t j = 0; j < c.cols(); ++j) {
        double acc = 0;
        for (std::size_t p = 0; p < a.cols(); ++p) {
          acc += static_cast<double>(a.at(i, p)) *
                 static_cast<double>(b.at(p, j));
        }
        ASSERT_EQ(c.at(i, j), static_cast<real_t>(acc))
            << "det=" << deterministic << " c(" << i << "," << j << ")";
      }
    }
  }
}

// --- Determinism pinning end to end --------------------------------------

/// Loss trajectory of a short LR run through the sync engine on a pool
/// of `threads` workers with det=on.
std::vector<double> short_trajectory(std::size_t threads) {
  Dataset ds = generate_dataset(
      "covtype", GeneratorOptions{.seed = 7, .scale = 600.0});
  LogisticRegression lr(ds.d());
  TrainData data;
  data.sparse = &ds.x;
  data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
  data.y = ds.y;
  const ScaleContext scale = make_scale_context(ds, lr, true);
  ThreadPool pool(threads);
  SyncEngineOptions opts;
  opts.arch = Arch::kCpuPar;
  opts.use_dense = true;
  opts.pool = &pool;
  opts.deterministic = true;
  SyncEngine e(lr, data, scale, opts);
  TrainOptions t;
  t.max_epochs = 3;
  const std::vector<real_t> w0 = lr.init_params(7);
  return run_training(e, lr, data, w0, real_t(0.5), t).losses;
}

TEST(KernelDeterminism, TrajectoryPoolSizeInvariant) {
  const std::vector<double> p1 = short_trajectory(1);
  ASSERT_EQ(p1.size(), 3u);
  EXPECT_EQ(p1, short_trajectory(2));
  EXPECT_EQ(p1, short_trajectory(8));
}

// --- Spec plumbing and calibration ---------------------------------------

TEST(KernelDeterminism, SpecDetKeyRoundTrips) {
  EngineSpec off = parse_spec("sync/cpu-par/dense:det=off");
  EXPECT_FALSE(off.deterministic);
  EXPECT_EQ(format_spec(off), "sync/cpu-par/dense:det=off");
  EngineSpec on = parse_spec("sync/cpu-par/dense:det=on");
  EXPECT_TRUE(on.deterministic);
  // det=on is the default — the canonical string omits it.
  EXPECT_EQ(format_spec(on), "sync/cpu-par/dense");
  EXPECT_FALSE(try_parse_spec("sync/cpu-par/dense:det=maybe").has_value());
}

}  // namespace
}  // namespace parsgd
