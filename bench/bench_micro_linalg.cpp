// Micro-benchmarks (google-benchmark) of the linalg primitives on both
// backends: host wall time of the functional path plus the modeled device
// cost as counters. Useful for catching regressions in the simulator's
// overhead and for profiling the reproduction itself.
//
// The Kernel group benchmarks every SIMD microkernel variant against the
// scalar reference (src/kernel/, DESIGN.md §14). Besides the interactive
// google-benchmark mode, `--calibration-report[=<dir>]` runs a standalone
// best-of-trials measurement of the same kernels and emits
// BENCH_micro_linalg_kernels.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "data/generator.hpp"
#include "gpusim/device.hpp"
#include "kernel/kernels.hpp"
#include "linalg/cpu_backend.hpp"
#include "linalg/gpu_backend.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "report/report.hpp"
#include "sgd/step_path.hpp"

namespace parsgd::linalg {
namespace {

DenseMatrix random_dense(std::size_t r, std::size_t c, Rng& rng) {
  DenseMatrix m(r, c);
  for (auto& v : m.data()) v = static_cast<real_t>(rng.normal());
  return m;
}

CsrMatrix random_csr(std::size_t r, std::size_t c, double density, Rng& rng) {
  CsrMatrix::Builder b(c);
  std::vector<index_t> idx;
  std::vector<real_t> val;
  for (std::size_t i = 0; i < r; ++i) {
    idx.clear();
    val.clear();
    for (index_t j = 0; j < c; ++j) {
      if (rng.bernoulli(density)) {
        idx.push_back(j);
        val.push_back(static_cast<real_t>(rng.normal()));
      }
    }
    b.add_row(idx, val);
  }
  return std::move(b).build();
}

void BM_CpuGemv(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const DenseMatrix a = random_dense(n, 256, rng);
  std::vector<real_t> x(256, 1), y(n);
  CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.gemv(a, x, y, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          256);
}
BENCHMARK(BM_CpuGemv)->Arg(256)->Arg(2048);

void BM_CpuSpmv(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const CsrMatrix a = random_csr(n, 4096, 0.02, rng);
  std::vector<real_t> x(4096, 1), y(n);
  CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.spmv(a, x, y, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_CpuSpmv)->Arg(512)->Arg(4096);

void BM_CpuGemm(benchmark::State& state) {
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const DenseMatrix a = random_dense(n, 64, rng);
  const DenseMatrix b = random_dense(64, 32, rng);
  DenseMatrix c(n, 32);
  CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.gemm(a, b, c, false, false);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          64 * 32 * 2);
}
BENCHMARK(BM_CpuGemm)->Arg(128)->Arg(1024);

// ---- CPU fast-path before/after ----
// The *Naive kernels reproduce the pre-fast-path arithmetic (per-element
// transpose resolution in gemm, sequential transposed folds) inline, so a
// single binary measures the speedup. Reproduce the committed numbers:
//   ./bench/bench_micro_linalg --benchmark_filter=FastPath
//       --benchmark_out=micro_linalg_fastpath.json
//       --benchmark_out_format=json

CsrMatrix random_csr_fixed_nnz(std::size_t r, std::size_t c,
                               std::size_t nnz_per_row, Rng& rng) {
  CsrMatrix::Builder b(c);
  std::vector<index_t> idx;
  std::vector<real_t> val;
  for (std::size_t i = 0; i < r; ++i) {
    idx.clear();
    val.clear();
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      idx.push_back(static_cast<index_t>(rng.uniform_index(c)));
    }
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      val.push_back(static_cast<real_t>(rng.normal()));
    }
    b.add_row(idx, val);
  }
  return std::move(b).build();
}

void BM_FastPathGemm512(benchmark::State& state) {
  Rng rng(6);
  const std::size_t n = 512;
  const DenseMatrix a = random_dense(n, n, rng);
  const DenseMatrix b = random_dense(n, n, rng);
  DenseMatrix c(n, n);
  CpuBackend be;
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.gemm(a, b, c, false, false);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
  state.counters["host_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_FastPathGemm512)->Unit(benchmark::kMillisecond);

void BM_FastPathGemm512Naive(benchmark::State& state) {
  Rng rng(6);
  const std::size_t n = 512;
  const DenseMatrix a = random_dense(n, n, rng);
  const DenseMatrix b = random_dense(n, n, rng);
  DenseMatrix c(n, n);
  // The seed kernel: transpose flags resolved per element through lambdas,
  // naive i/j/p loops.
  const bool trans_a = false, trans_b = false;
  auto at = [&](std::size_t i, std::size_t j) {
    return trans_a ? a.at(j, i) : a.at(i, j);
  };
  auto bt = [&](std::size_t i, std::size_t j) {
    return trans_b ? b.at(j, i) : b.at(i, j);
  };
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0;
        for (std::size_t p = 0; p < n; ++p)
          acc += static_cast<double>(at(i, p)) * bt(p, j);
        c.at(i, j) = static_cast<real_t>(acc);
      }
    }
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_FastPathGemm512Naive)->Unit(benchmark::kMillisecond);

void BM_FastPathGemvTranspose(benchmark::State& state) {
  Rng rng(7);
  const std::size_t m = 4096, n = 2048;
  const DenseMatrix a = random_dense(m, n, rng);
  std::vector<real_t> x(m, 1), y(n);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  CpuBackendOptions opts;
  opts.pool = &pool;
  CpuBackend be(opts);
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.gemv(a, x, y, /*transpose=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n));
  state.counters["host_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_FastPathGemvTranspose)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FastPathGemvTransposeNaive(benchmark::State& state) {
  Rng rng(7);
  const std::size_t m = 4096, n = 2048;
  const DenseMatrix a = random_dense(m, n, rng);
  std::vector<real_t> x(m, 1), y(n);
  for (auto _ : state) {
    // The seed kernel: sequential row-scaled accumulation.
    std::fill(y.begin(), y.end(), real_t(0));
    for (std::size_t r = 0; r < m; ++r) {
      const auto row = a.row(r);
      const real_t s = x[r];
      if (s == real_t(0)) continue;
      for (std::size_t c = 0; c < n; ++c) y[c] += s * row[c];
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n));
}
BENCHMARK(BM_FastPathGemvTransposeNaive)->Unit(benchmark::kMillisecond);

void BM_FastPathSpmvTranspose(benchmark::State& state) {
  Rng rng(8);
  const std::size_t m = 20000, n = 65536, nnz_row = 60;
  const CsrMatrix a = random_csr_fixed_nnz(m, n, nnz_row, rng);
  std::vector<real_t> x(m, 1), y(n);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  CpuBackendOptions opts;
  opts.pool = &pool;
  CpuBackend be(opts);
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.spmv(a, x, y, /*transpose=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
  state.counters["host_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_FastPathSpmvTranspose)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FastPathSpmvTransposeNaive(benchmark::State& state) {
  Rng rng(8);
  const std::size_t m = 20000, n = 65536, nnz_row = 60;
  const CsrMatrix a = random_csr_fixed_nnz(m, n, nnz_row, rng);
  std::vector<real_t> x(m, 1), y(n);
  for (auto _ : state) {
    // The seed kernel: sequential scatter.
    std::fill(y.begin(), y.end(), real_t(0));
    for (std::size_t r = 0; r < m; ++r) {
      const real_t s = x[r];
      if (s == real_t(0)) continue;
      const auto rv = a.row(r);
      for (std::size_t k = 0; k < rv.nnz(); ++k)
        y[rv.idx[k]] += s * rv.val[k];
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_FastPathSpmvTransposeNaive)->Unit(benchmark::kMillisecond);

// ---- news-shaped sparse sync epoch ----
// news at 1/400 scale: N = 512, d = 1,355,191, about 233k nonzeros over
// |J| = 70k touched columns. Arg(0) is the pool's worker count (0 = a
// worker-less pool, 3 = the nproc-1 pool of a 4-core host).
//   ./bench/bench_micro_linalg --benchmark_filter=News

const Dataset& news_at_400() {
  static const Dataset ds =
      generate_dataset("news", GeneratorOptions{.seed = 1, .scale = 400.0});
  return ds;
}

std::unique_ptr<ThreadPool> bench_pool(std::int64_t workers) {
  return workers == 0 ? std::make_unique<ThreadPool>(ThreadPool::NoWorkers{})
                      : std::make_unique<ThreadPool>(
                            static_cast<std::size_t>(workers));
}

// ---- dataset generation ----
// generate_dataset on news: Arg(0) = 1 at Study's MLP scale (paper N /
// 2,048 = 9.76: 2,048 x 1,355,191 with about 932k nonzeros, no dense
// copy), Arg(0) = 0 at 1/400; Arg(1) is the pool's worker count.
//   ./bench/bench_micro_linalg --benchmark_filter=GenerateDataset
void BM_GenerateDataset(benchmark::State& state) {
  const auto pool = bench_pool(state.range(1));
  GeneratorOptions g{.seed = 42, .scale = 400.0, .pool = pool.get()};
  if (state.range(0) != 0) {
    g.scale = static_cast<double>(profile_by_name("news").paper_n()) / 2048.0;
    g.dense_budget_bytes = 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_dataset("news", g));
  }
}
BENCHMARK(BM_GenerateDataset)
    ->Args({1, 0})
    ->Args({1, 3})
    ->Args({0, 0})
    ->Args({0, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The gradient update w += a * A^T coef: fused (Arg(1) = 1, writes only
/// J) or as the two calls it replaces (Arg(1) = 0: spmv^T into a d-vector,
/// then a d-length axpy).
void BM_NewsSparseUpdate(benchmark::State& state) {
  const CsrMatrix& a = news_at_400().x;
  const auto pool = bench_pool(state.range(0));
  const bool fused = state.range(1) != 0;
  CpuBackend be(CpuBackendOptions{.pool = pool.get()});
  CostBreakdown cost;
  be.set_sink(&cost);
  Rng rng(9);
  std::vector<real_t> coef(a.rows()), w(a.cols(), 0), g(a.cols());
  for (auto& v : coef) v = static_cast<real_t>(rng.normal());
  for (auto _ : state) {
    if (fused) {
      be.spmv_t_axpy(real_t(-1e-3), a, coef, w);
    } else {
      be.spmv(a, coef, g, /*transpose=*/true);
      be.axpy(real_t(-1e-3), g, w);
    }
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_NewsSparseUpdate)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One run_training epoch of LR: the sync epoch plus the loss of the
/// updated model, on the same pool. Arg(1) = 1 carries the margin pass as
/// SyncEngine does under run_training: the loss evaluation stages the next
/// epoch's coefficients, and the epoch skips its forward pass and
/// coefficient kernel. Arg(1) = 0 is the uncarried form: forward pass,
/// coefficient kernel and update, then dataset_loss.
void run_sync_epochs(benchmark::State& state, const Dataset& ds,
                     bool dense) {
  const auto pool = bench_pool(state.range(0));
  const bool carried = state.range(1) != 0;
  CpuBackend be(CpuBackendOptions{.pool = pool.get()});
  CostBreakdown cost;
  be.set_sink(&cost);
  const LogisticRegression lr(ds.d());
  TrainData data;
  data.sparse = &ds.x;
  data.dense = dense ? &*ds.x_dense : nullptr;
  data.y = ds.y;
  std::vector<real_t> w = lr.init_params(1);
  EpochCarry carry;
  for (auto _ : state) {
    cost.reset();
    if (carried) {
      lr.sync_epoch(be, data, dense, real_t(1e-3), w, &carry, pool.get());
      benchmark::DoNotOptimize(carry.loss);
    } else {
      lr.sync_epoch(be, data, dense, real_t(1e-3), w);
      benchmark::DoNotOptimize(lr.dataset_loss(data, w, dense, pool.get()));
    }
  }
}

void BM_NewsSyncEpoch(benchmark::State& state) {
  run_sync_epochs(state, news_at_400(), /*dense=*/false);
}
BENCHMARK(BM_NewsSyncEpoch)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// rcv1 at 1/400 scale: N = 1,693, d = 47,236 and |J| = 3,273 touched
/// columns of 38 entries each on average, so two bands.
void BM_Rcv1SyncEpoch(benchmark::State& state) {
  static const Dataset ds = generate_dataset(
      "rcv1", GeneratorOptions{.seed = 1, .scale = 400.0});
  run_sync_epochs(state, ds, /*dense=*/false);
}
BENCHMARK(BM_Rcv1SyncEpoch)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// covtype at 1/400 scale: N = 1,452, d = 54, the one dense dataset.
const Dataset& covtype_at_400() {
  static const Dataset ds = generate_dataset(
      "covtype", GeneratorOptions{.seed = 1, .scale = 400.0});
  return ds;
}

/// The dense twin, through the dense gemv path.
void BM_CovtypeSyncEpoch(benchmark::State& state) {
  run_sync_epochs(state, covtype_at_400(), /*dense=*/true);
}
BENCHMARK(BM_CovtypeSyncEpoch)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The dense update's transposed product X^T coef on covtype, at LR's
/// coefficients for its initial model; Arg = pool workers.
void BM_CovtypeGemvTranspose(benchmark::State& state) {
  const Dataset& ds = covtype_at_400();
  const DenseMatrix& x = *ds.x_dense;
  const auto pool = bench_pool(state.range(0));
  CpuBackend be(CpuBackendOptions{.pool = pool.get()});
  CostBreakdown cost;
  be.set_sink(&cost);
  const std::vector<real_t> w = LogisticRegression(ds.d()).init_params(1);
  std::vector<real_t> z(x.rows()), coef(x.rows()), g(x.cols());
  be.gemv(x, w, z, /*transpose=*/false);
  be.lr_loss_coefficients(z, ds.y, coef);
  for (auto _ : state) {
    be.gemv(x, coef, g, /*transpose=*/true);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CovtypeGemvTranspose)
    ->Arg(0)
    ->Arg(3)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// ---- SIMD microkernel variants ----
// Every kernel of the dispatch table, each compiled variant vs the scalar
// reference. Arg(0)=scalar, Arg(1)=avx2, Arg(2)=avx512; variants the host
// or toolchain lacks are skipped. Reproduce the committed numbers:
//   ./bench/bench_micro_linalg --benchmark_filter=Kernel
//       --benchmark_out=micro_linalg_simd.json --benchmark_out_format=json

constexpr std::size_t kVecLen = 4096;       ///< dot/axpy/scale/spmv_row nnz
constexpr std::size_t kGatherSpan = 16384;  ///< spmv_row x length
constexpr std::size_t kTileKc = 128;        ///< gemm_tile panel depth
constexpr std::size_t kTileNc = 64;         ///< gemm_tile register width
constexpr std::size_t kBandRows = 256;      ///< gemv_t_band rows
constexpr std::size_t kBandCols = 1024;     ///< gemv_t_band band width

const kernel::Kernels* variant_or_null(int arg) {
  const auto v = static_cast<kernel::KernelVariant>(arg);
  if (v != kernel::KernelVariant::kScalar && !kernel::variant_available(v)) {
    return nullptr;
  }
  return &kernel::kernels(v);
}

std::vector<real_t> random_vec(std::size_t n, Rng& rng) {
  std::vector<real_t> v(n);
  for (auto& x : v) x = static_cast<real_t>(rng.normal());
  return v;
}

void BM_KernelDot(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(11);
  const std::vector<real_t> x = random_vec(kVecLen, rng);
  const std::vector<real_t> y = random_vec(kVecLen, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kn->dot(x.data(), y.data(), kVecLen));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * kVecLen));
}
BENCHMARK(BM_KernelDot)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelAxpy(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(12);
  const std::vector<real_t> x = random_vec(kVecLen, rng);
  std::vector<real_t> y = random_vec(kVecLen, rng);
  for (auto _ : state) {
    kn->axpy(real_t(1e-6), x.data(), y.data(), kVecLen);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * kVecLen));
}
BENCHMARK(BM_KernelAxpy)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelScale(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(13);
  std::vector<real_t> x = random_vec(kVecLen, rng);
  for (auto _ : state) {
    kn->scale(x.data(), real_t(0.999999f), kVecLen);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kVecLen));
}
BENCHMARK(BM_KernelScale)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelGemmTile(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(14);
  const std::vector<real_t> a = random_vec(kTileKc, rng);
  const std::vector<real_t> b = random_vec(kTileKc * kTileNc, rng);
  std::vector<double> acc(kTileNc, 0.0);
  for (auto _ : state) {
    kn->gemm_tile(a.data(), b.data(), kTileNc, acc.data(), kTileKc,
                  kTileNc);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * kTileKc * kTileNc));
}
BENCHMARK(BM_KernelGemmTile)->Arg(0)->Arg(1)->Arg(2);

// The MLP input layer's block kernels at the 300-input net's shape. A
// call handles one block of `lanes` examples, so items are example x
// weight products: items/s compares across variants.
constexpr std::size_t kMlpIn = 300;    ///< block_gemm/block_ger features
constexpr std::size_t kMlpUnits = 10;  ///< block_gemm/block_ger units

void BM_KernelBlockGemm(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(18);
  const std::vector<real_t> xt = random_vec(kMlpIn * kn->lanes, rng);
  const std::vector<real_t> w = random_vec(kMlpIn * kMlpUnits, rng);
  std::vector<double> acc(kMlpUnits * kn->lanes, 0.0);
  for (auto _ : state) {
    kn->block_gemm(xt.data(), w.data(), kMlpUnits, acc.data(), kMlpIn,
                   kMlpUnits);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMlpIn * kMlpUnits *
                                                    kn->lanes));
}
BENCHMARK(BM_KernelBlockGemm)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelBlockGer(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(19);
  const std::vector<real_t> x = random_vec(kn->lanes * kMlpIn, rng);
  std::vector<double> delta(kMlpUnits * kn->lanes);
  for (double& v : delta) v = rng.normal();
  std::vector<double> g(kMlpUnits * kMlpIn, 0.0);
  for (auto _ : state) {
    kn->block_ger(x.data(), kMlpIn, kn->lanes, delta.data(), g.data(),
                  kMlpIn, kMlpIn, kMlpUnits);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMlpIn * kMlpUnits *
                                                    kn->lanes));
}
BENCHMARK(BM_KernelBlockGer)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelGemvTBand(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(15);
  const std::vector<real_t> a = random_vec(kBandRows * kBandCols, rng);
  const std::vector<real_t> x = random_vec(kBandRows, rng);
  std::vector<real_t> y(kBandCols, 0);
  for (auto _ : state) {
    std::fill(y.begin(), y.end(), real_t(0));
    kn->gemv_t_band(a.data(), kBandCols, kBandRows, x.data(), y.data(),
                    kBandCols);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(
                                                   2 * kBandRows * kBandCols));
}
BENCHMARK(BM_KernelGemvTBand)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelSpmvRow(benchmark::State& state) {
  const kernel::Kernels* kn = variant_or_null(static_cast<int>(state.range(0)));
  if (kn == nullptr) {
    state.SkipWithError("variant not available on this host/toolchain");
    return;
  }
  Rng rng(16);
  const std::vector<real_t> val = random_vec(kVecLen, rng);
  const std::vector<real_t> x = random_vec(kGatherSpan, rng);
  std::vector<index_t> idx(kVecLen);
  for (auto& i : idx) {
    i = static_cast<index_t>(rng.uniform_index(kGatherSpan));
  }
  std::sort(idx.begin(), idx.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kn->spmv_row(val.data(), idx.data(), kVecLen, x.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * kVecLen));
}
BENCHMARK(BM_KernelSpmvRow)->Arg(0)->Arg(1)->Arg(2);

// ---- mini-batch step path: dataflow task graph ----
// One synchronized mini-batch epoch (sgd/step_path): the whole epoch as
// one TaskGraph dependency graph, no per-batch barrier (DESIGN.md §15).
// Sparse LR with deliberately light per-batch arithmetic so the
// scheduling floor dominates. Pooled benchmarks report wall time
// (UseRealTime): the default CPU time counts only the calling thread and
// misses the workers' share. Reproduce the committed numbers:
//   ./bench/bench_micro_linalg --benchmark_filter=StepPath
//       --benchmark_out=micro_linalg_steppath.json
//       --benchmark_out_format=json

constexpr std::size_t kStepPathRows = 16384;
constexpr std::size_t kStepPathCols = 512;
constexpr std::size_t kStepPathNnzRow = 32;
constexpr std::size_t kStepPathBatch = 2048;  ///< >= decomposition floor

struct StepPathProblem {
  CsrMatrix x;
  std::vector<real_t> y;
  LogisticRegression model;
  TrainData data;

  StepPathProblem()
      : x([] {
          Rng rng(21);
          return random_csr_fixed_nnz(kStepPathRows, kStepPathCols,
                                      kStepPathNnzRow, rng);
        }()),
        y(kStepPathRows),
        model(kStepPathCols) {
    Rng rng(22);
    for (auto& v : y) v = rng.bernoulli(0.5) ? real_t(1) : real_t(-1);
    data.sparse = &x;
    data.y = y;
  }
};

void BM_StepPath_Graph(benchmark::State& state) {
  const StepPathProblem p;
  const std::vector<real_t> w0 = p.model.init_params(5);
  std::vector<real_t> w = w0;
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  MinibatchEpochOptions opts;
  opts.minibatch = kStepPathBatch;
  opts.pool = &pool;
  Rng order(31);
  for (auto _ : state) {
    w = w0;  // keep every epoch numerically identical
    run_minibatch_epoch(p.model, p.data, real_t(0.05), w, order, nullptr,
                        opts);
    benchmark::DoNotOptimize(w.data());
  }
  const auto batches =
      (kStepPathRows + kStepPathBatch - 1) / kStepPathBatch;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kStepPathRows));
  state.counters["batches_per_epoch"] = static_cast<double>(batches);
}

BENCHMARK(BM_StepPath_Graph)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// GPU-simulated SpMV: measures simulator overhead per nonzero and reports
// the modeled kernel cycles as a counter.
void BM_GpuSimSpmv(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const CsrMatrix a = random_csr(n, 4096, 0.02, rng);
  std::vector<real_t> x(4096, 1), y(n);
  gpusim::Device dev(paper_gpu());
  GpuBackend be(dev);
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.spmv(a, x, y, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
  state.counters["modeled_cycles_per_call"] = benchmark::Counter(
      cost.gpu_cycles / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GpuSimSpmv)->Arg(512)->Arg(2048);

void BM_GpuSimGemmAnalytic(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const DenseMatrix a = random_dense(n, 64, rng);
  const DenseMatrix b = random_dense(64, 32, rng);
  DenseMatrix c(n, 32);
  gpusim::Device dev(paper_gpu());
  GpuBackend be(dev);
  CostBreakdown cost;
  be.set_sink(&cost);
  for (auto _ : state) {
    be.gemm(a, b, c, false, false);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.counters["modeled_cycles_per_call"] = benchmark::Counter(
      cost.gpu_cycles / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GpuSimGemmAnalytic)->Arg(512);

// ---- calibration report ----
// Standalone (non-google-benchmark) best-of-trials measurement of the
// dispatch table vs the scalar reference, emitted as a RunReport so the
// measured speedups are diffable (parsgd_compare).

/// Best-of-`trials` mean seconds per call of `fn` over `reps` calls.
template <class Fn>
double best_secs_per_call(Fn&& fn, int reps, int trials) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count() / reps;
    best = std::min(best, secs);
  }
  return best;
}

struct KernelTimings {
  const char* name;
  double scalar_secs = 0;
  double avx2_secs = -1;    ///< -1 = variant unavailable
  double avx512_secs = -1;
};

/// Times one kernel under every available variant. `body(kn)` runs the
/// kernel once through table `kn`.
template <class Body>
KernelTimings time_variants(const char* name, Body&& body) {
  constexpr int kReps = 2000, kTrials = 7;
  KernelTimings t;
  t.name = name;
  const kernel::Kernels& scalar = kernel::scalar_kernels();
  t.scalar_secs = best_secs_per_call([&] { body(scalar); }, kReps, kTrials);
  if (kernel::variant_available(kernel::KernelVariant::kAvx2)) {
    const kernel::Kernels& kn =
        *kernel::avx2_kernels();
    t.avx2_secs = best_secs_per_call([&] { body(kn); }, kReps, kTrials);
  }
  if (kernel::variant_available(kernel::KernelVariant::kAvx512)) {
    const kernel::Kernels& kn = *kernel::avx512_kernels();
    t.avx512_secs = best_secs_per_call([&] { body(kn); }, kReps, kTrials);
  }
  return t;
}

int run_calibration_report(const std::string& dir) {
  Rng rng(17);
  const std::vector<real_t> x = random_vec(kVecLen, rng);
  const std::vector<real_t> yc = random_vec(kVecLen, rng);
  std::vector<real_t> y = yc;
  const std::vector<real_t> ta = random_vec(kTileKc, rng);
  const std::vector<real_t> tb = random_vec(kTileKc * kTileNc, rng);
  std::vector<double> acc(kTileNc, 0.0);
  const std::vector<real_t> band_a = random_vec(kBandRows * kBandCols, rng);
  const std::vector<real_t> band_x = random_vec(kBandRows, rng);
  std::vector<real_t> band_y(kBandCols, 0);
  const std::vector<real_t> gx = random_vec(kGatherSpan, rng);
  std::vector<index_t> idx(kVecLen);
  for (auto& i : idx) {
    i = static_cast<index_t>(rng.uniform_index(kGatherSpan));
  }
  std::sort(idx.begin(), idx.end());

  double sink = 0;
  const std::vector<KernelTimings> timings = {
      time_variants("dot",
                    [&](const kernel::Kernels& kn) {
                      sink += kn.dot(x.data(), yc.data(), kVecLen);
                    }),
      time_variants("axpy",
                    [&](const kernel::Kernels& kn) {
                      kn.axpy(real_t(1e-6), x.data(), y.data(), kVecLen);
                    }),
      time_variants("scale",
                    [&](const kernel::Kernels& kn) {
                      kn.scale(y.data(), real_t(0.999999f), kVecLen);
                    }),
      time_variants("gemm_tile",
                    [&](const kernel::Kernels& kn) {
                      kn.gemm_tile(ta.data(), tb.data(), kTileNc,
                                   acc.data(), kTileKc, kTileNc);
                    }),
      time_variants("gemv_t_band",
                    [&](const kernel::Kernels& kn) {
                      kn.gemv_t_band(band_a.data(), kBandCols, kBandRows,
                                     band_x.data(), band_y.data(),
                                     kBandCols);
                    }),
      time_variants("spmv_row",
                    [&](const kernel::Kernels& kn) {
                      sink += kn.spmv_row(x.data(), idx.data(), kVecLen,
                                          gx.data());
                    }),
  };
  benchmark::DoNotOptimize(sink);

  report::RunReport rep("micro_linalg_kernels");
  std::printf("SIMD microkernel calibration (%s)\n",
              rep.build.kernel_dispatch.c_str());
  for (const KernelTimings& t : timings) {
    report::Entry e;
    e.label = std::string("kernel/") + t.name;
    e.extras.emplace_back("scalar_ns", t.scalar_secs * 1e9);
    double best = t.scalar_secs;
    if (t.avx2_secs > 0) {
      e.extras.emplace_back("avx2_speedup", t.scalar_secs / t.avx2_secs);
      best = std::min(best, t.avx2_secs);
    }
    if (t.avx512_secs > 0) {
      e.extras.emplace_back("avx512_speedup",
                            t.scalar_secs / t.avx512_secs);
      best = std::min(best, t.avx512_secs);
    }
    const double best_speedup = t.scalar_secs / best;
    e.extras.emplace_back("best_speedup", best_speedup);
    std::printf("  %-12s scalar %8.1f ns  best %5.2fx", t.name,
                t.scalar_secs * 1e9, best_speedup);
    if (t.avx2_secs > 0) {
      std::printf("  (avx2 %5.2fx", t.scalar_secs / t.avx2_secs);
      if (t.avx512_secs > 0) {
        std::printf(", avx512 %5.2fx", t.scalar_secs / t.avx512_secs);
      }
      std::printf(")");
    }
    std::printf("\n");
    rep.add_entry(std::move(e));
  }

  // Step-path scheduling overhead: one mini-batch epoch on the dataflow
  // task graph, diffable across commits like the kernel speedups above.
  {
    const StepPathProblem p;
    const std::vector<real_t> w0 = p.model.init_params(5);
    std::vector<real_t> w = w0;
    ThreadPool pool(8);
    Rng order(31);
    const double batches = static_cast<double>(
        (kStepPathRows + kStepPathBatch - 1) / kStepPathBatch);
    MinibatchEpochOptions opts;
    opts.minibatch = kStepPathBatch;
    opts.pool = &pool;
    const double graph_secs = best_secs_per_call(
        [&] {
          w = w0;
          run_minibatch_epoch(p.model, p.data, real_t(0.05), w, order,
                              nullptr, opts);
        },
        /*reps=*/40, /*trials=*/5);
    report::Entry sp;
    sp.label = "step_path/minibatch";
    sp.extras.emplace_back("graph_us_per_batch", graph_secs * 1e6 / batches);
    std::printf("  step_path     graph %8.1f us/batch\n",
                graph_secs * 1e6 / batches);
    rep.add_entry(std::move(sp));
  }

  const std::string path = report::emit(rep, dir);
  std::printf("report: %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace parsgd::linalg

int main(int argc, char** argv) {
  // --calibration-report[=<dir>] bypasses google-benchmark (which rejects
  // flags it does not know) and runs the standalone measurement.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string flag = "--calibration-report";
    if (arg.rfind(flag, 0) == 0) {
      std::string dir;
      if (arg.size() > flag.size() && arg[flag.size()] == '=') {
        dir = arg.substr(flag.size() + 1);
      }
      return parsgd::linalg::run_calibration_report(dir);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
