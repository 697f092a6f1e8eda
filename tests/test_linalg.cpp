#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "kernel/kernels.hpp"
#include "linalg/cpu_backend.hpp"
#include "linalg/gpu_backend.hpp"
#include "matrix/example_view.hpp"
#include "parallel/thread_pool.hpp"
#include "spmv_t_reference.hpp"

namespace parsgd::linalg {
namespace {

DenseMatrix random_dense(std::size_t r, std::size_t c, Rng& rng) {
  DenseMatrix m(r, c);
  for (auto& v : m.data()) v = static_cast<real_t>(rng.normal());
  return m;
}

CsrMatrix random_csr(std::size_t r, std::size_t c, double density,
                     Rng& rng) {
  CsrMatrix::Builder b(c);
  for (std::size_t i = 0; i < r; ++i) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
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

std::vector<real_t> random_vec(std::size_t n, Rng& rng) {
  std::vector<real_t> v(n);
  for (auto& x : v) x = static_cast<real_t>(rng.normal());
  return v;
}

// Reference (naive double-precision) implementations.
std::vector<real_t> ref_gemv(const DenseMatrix& a,
                             std::span<const real_t> x, bool t) {
  std::vector<real_t> y(t ? a.cols() : a.rows(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (t)
        y[j] += a.at(i, j) * x[i];
      else
        y[i] += a.at(i, j) * x[j];
    }
  }
  return y;
}

class BackendCase : public testing::TestWithParam<bool> {
 protected:
  BackendCase() {
    if (gpu()) {
      device_ = std::make_unique<gpusim::Device>(paper_gpu());
      backend_ = std::make_unique<GpuBackend>(*device_);
    } else {
      CpuBackendOptions opts;
      opts.threads = 4;
      backend_ = std::make_unique<CpuBackend>(opts);
    }
    backend_->set_sink(&cost_);
  }
  bool gpu() const { return GetParam(); }
  Backend& be() { return *backend_; }

  std::unique_ptr<gpusim::Device> device_;
  std::unique_ptr<Backend> backend_;
  CostBreakdown cost_;
};

TEST_P(BackendCase, GemvMatchesReference) {
  Rng rng(1);
  const DenseMatrix a = random_dense(17, 9, rng);
  const auto x = random_vec(9, rng);
  std::vector<real_t> y(17);
  be().gemv(a, x, y, false);
  const auto ref = ref_gemv(a, x, false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-4);
  EXPECT_GT(cost_.flops, 0);
}

TEST_P(BackendCase, GemvTransposeMatchesReference) {
  Rng rng(2);
  const DenseMatrix a = random_dense(8, 12, rng);
  const auto x = random_vec(8, rng);
  std::vector<real_t> y(12);
  be().gemv(a, x, y, true);
  const auto ref = ref_gemv(a, x, true);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-4);
}

TEST_P(BackendCase, SpmvMatchesDenseGemv) {
  Rng rng(3);
  const CsrMatrix a = random_csr(25, 40, 0.2, rng);
  const DenseMatrix ad = a.to_dense();
  const auto x = random_vec(40, rng);
  std::vector<real_t> y(25);
  be().spmv(a, x, y, false);
  const auto ref = ref_gemv(ad, x, false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-4);
}

TEST_P(BackendCase, SpmvTransposeMatchesDense) {
  Rng rng(4);
  const CsrMatrix a = random_csr(30, 20, 0.15, rng);
  const DenseMatrix ad = a.to_dense();
  const auto x = random_vec(30, rng);
  std::vector<real_t> y(20);
  be().spmv(a, x, y, true);
  const auto ref = ref_gemv(ad, x, true);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-4);
}

TEST_P(BackendCase, GemmMatchesReference) {
  Rng rng(5);
  const DenseMatrix a = random_dense(7, 5, rng);
  const DenseMatrix b = random_dense(5, 6, rng);
  DenseMatrix c(7, 6);
  be().gemm(a, b, c, false, false);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      double ref = 0;
      for (std::size_t k = 0; k < 5; ++k) ref += double(a.at(i, k)) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), ref, 1e-4);
    }
  }
}

TEST_P(BackendCase, GemmTransposedOperands) {
  Rng rng(6);
  const DenseMatrix a = random_dense(5, 7, rng);  // used as A^T: 7x5
  const DenseMatrix b = random_dense(6, 5, rng);  // used as B^T: 5x6
  DenseMatrix c(7, 6);
  be().gemm(a, b, c, true, true);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      double ref = 0;
      for (std::size_t k = 0; k < 5; ++k) ref += double(a.at(k, i)) * b.at(j, k);
      EXPECT_NEAR(c.at(i, j), ref, 1e-4);
    }
  }
}

TEST_P(BackendCase, SpmmMatchesGemm) {
  Rng rng(7);
  const CsrMatrix a = random_csr(12, 10, 0.3, rng);
  const DenseMatrix b = random_dense(10, 4, rng);
  DenseMatrix c(12, 4), ref(12, 4);
  be().spmm(a, b, c);
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  host.gemm(a.to_dense(), b, ref, false, false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4);
  }
}

TEST_P(BackendCase, SpmmAtBMatchesGemm) {
  Rng rng(8);
  const CsrMatrix a = random_csr(15, 9, 0.25, rng);
  const DenseMatrix b = random_dense(15, 3, rng);
  DenseMatrix c(9, 3), ref(9, 3);
  be().spmm_at_b(a, b, c);
  CostBreakdown scratch;
  CpuBackend host;
  host.set_sink(&scratch);
  host.gemm(a.to_dense(), b, ref, /*trans_a=*/true, false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4);
  }
}

TEST_P(BackendCase, VectorOps) {
  Rng rng(9);
  auto x = random_vec(33, rng);
  auto y = random_vec(33, rng);
  const auto y0 = y;
  be().axpy(real_t(0.5), x, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], y0[i] + 0.5f * x[i], 1e-5);
  }
  const double d = be().dot(x, y);
  double ref = 0;
  for (std::size_t i = 0; i < x.size(); ++i) ref += double(x[i]) * y[i];
  EXPECT_NEAR(d, ref, 1e-3);
  be().scale(x, real_t(2));
  EXPECT_NEAR(be().dot(x, y), 2 * ref, 2e-3);
}

TEST_P(BackendCase, Sigmoid) {
  const std::vector<real_t> x = {-100, -1, 0, 1, 100};
  std::vector<real_t> y(5);
  be().ew_sigmoid(x, y);
  EXPECT_NEAR(y[0], 0.0, 1e-6);
  EXPECT_NEAR(y[1], 1.0 / (1.0 + std::exp(1.0)), 1e-5);
  EXPECT_NEAR(y[2], 0.5, 1e-6);
  EXPECT_NEAR(y[4], 1.0, 1e-6);
}

TEST_P(BackendCase, SigmoidGrad) {
  const std::vector<real_t> up = {2, 2};
  const std::vector<real_t> s = {0.5, 0.25};
  std::vector<real_t> out(2);
  be().ew_sigmoid_grad(up, s, out);
  EXPECT_NEAR(out[0], 2 * 0.25, 1e-6);
  EXPECT_NEAR(out[1], 2 * 0.1875, 1e-6);
}

TEST_P(BackendCase, BiasAndColSum) {
  DenseMatrix c(3, 2, 1);
  const std::vector<real_t> bias = {10, 20};
  be().add_bias_rows(c, bias);
  EXPECT_EQ(c.at(2, 1), real_t(21));
  std::vector<real_t> sums(2);
  be().col_sum(c, sums);
  EXPECT_EQ(sums[0], real_t(33));
  EXPECT_EQ(sums[1], real_t(63));
}

TEST_P(BackendCase, LrCoefficients) {
  const std::vector<real_t> z = {0, 2, -2};
  const std::vector<real_t> y = {1, 1, -1};
  std::vector<real_t> coef(3);
  const double loss = be().lr_loss_coefficients(z, y, coef);
  // loss = log2 + log(1+e^-2) + log(1+e^-2)
  EXPECT_NEAR(loss, std::log(2.0) + 2 * std::log1p(std::exp(-2.0)), 1e-5);
  EXPECT_NEAR(coef[0], -0.5, 1e-6);
  EXPECT_NEAR(coef[1], -1.0 / (1.0 + std::exp(2.0)), 1e-6);
  EXPECT_NEAR(coef[2], 1.0 / (1.0 + std::exp(2.0)), 1e-6);
}

TEST_P(BackendCase, SvmCoefficients) {
  const std::vector<real_t> z = {0.5, 2, -0.5};
  const std::vector<real_t> y = {1, 1, -1};
  std::vector<real_t> coef(3);
  const double loss = be().svm_loss_coefficients(z, y, coef);
  EXPECT_NEAR(loss, 0.5 + 0 + 0.5, 1e-6);
  EXPECT_EQ(coef[0], real_t(-1));  // margin 0.5 < 1
  EXPECT_EQ(coef[1], real_t(0));   // margin 2 >= 1
  EXPECT_EQ(coef[2], real_t(1));   // margin 0.5 < 1, label -1
}

TEST_P(BackendCase, SoftmaxXent) {
  DenseMatrix logits(2, 2);
  logits.at(0, 0) = 0;
  logits.at(0, 1) = 0;  // uniform -> loss log 2
  logits.at(1, 0) = -10;
  logits.at(1, 1) = 10;  // confident class 1
  const std::vector<real_t> y = {1, 1};
  DenseMatrix dl(2, 2);
  const double loss = be().softmax_xent(logits, y, dl);
  EXPECT_NEAR(loss, std::log(2.0), 1e-4);
  EXPECT_NEAR(dl.at(0, 0), 0.5, 1e-5);   // softmax - onehot
  EXPECT_NEAR(dl.at(0, 1), -0.5, 1e-5);
  EXPECT_NEAR(dl.at(1, 1), 0.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(CpuAndGpu, BackendCase, testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Gpu" : "Cpu";
                         });

TEST(CpuBackendQuirks, GemmThresholdControlsParallelism) {
  Rng rng(11);
  CpuBackendOptions opts;
  opts.threads = 8;
  opts.gemm_parallel_threshold = 5000;
  CpuBackend be(opts);
  CostBreakdown cost;
  be.set_sink(&cost);
  // 300x10 result = 3000 < 5000: serial (the paper's MLP case).
  DenseMatrix a = random_dense(300, 64, rng), b = random_dense(64, 10, rng);
  DenseMatrix c(300, 10);
  be.gemm(a, b, c, false, false);
  EXPECT_FALSE(be.last_gemm_parallel());
  EXPECT_GT(be.gemm_serial_flops(), 0);
  // 1000x10 = 10000 >= 5000: parallel.
  DenseMatrix a2 = random_dense(1000, 16, rng), b2 = random_dense(16, 10, rng);
  DenseMatrix c2(1000, 10);
  be.gemm(a2, b2, c2, false, false);
  EXPECT_TRUE(be.last_gemm_parallel());
}

TEST(CpuBackendQuirks, SingleThreadNeverCountsSerialGemm) {
  Rng rng(12);
  CpuBackend be;  // threads = 1
  CostBreakdown cost;
  be.set_sink(&cost);
  DenseMatrix a = random_dense(10, 10, rng), b = random_dense(10, 10, rng);
  DenseMatrix c(10, 10);
  be.gemm(a, b, c, false, false);
  EXPECT_EQ(be.gemm_serial_flops(), 0);
}

// ---- CPU fast-path determinism ----
// The blocked GEMM and the parallelized transpose kernels must produce
// results independent of the executing pool's size: the reduction grids
// depend only on operand shapes, never on thread count.

CpuBackend pooled_backend(ThreadPool& pool) {
  CpuBackendOptions opts;
  opts.threads = 4;  // modeling knob; execution uses `pool`
  opts.pool = &pool;
  return CpuBackend(opts);
}

TEST(CpuBackendDeterminism, GemvTransposeBitIdenticalAcrossPools) {
  Rng rng(21);
  const DenseMatrix a = random_dense(300, 500, rng);
  const auto x = random_vec(300, rng);
  std::vector<std::vector<real_t>> results;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    CpuBackend be = pooled_backend(pool);
    CostBreakdown cost;
    be.set_sink(&cost);
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<real_t> y(500);
      be.gemv(a, x, y, /*transpose=*/true);
      results.push_back(std::move(y));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "pool/rep variant " << i;
  }
}

TEST(CpuBackendDeterminism, SpmvTransposeBitIdenticalAcrossPools) {
  Rng rng(22);
  // 512 rows -> several reduction chunks, so the merged path is exercised.
  const CsrMatrix a = random_csr(512, 300, 0.05, rng);
  const auto x = random_vec(512, rng);
  std::vector<std::vector<real_t>> results;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    CpuBackend be = pooled_backend(pool);
    CostBreakdown cost;
    be.set_sink(&cost);
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<real_t> y(300);
      be.spmv(a, x, y, /*transpose=*/true);
      results.push_back(std::move(y));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "pool/rep variant " << i;
  }
}

TEST(CpuBackendDeterminism, SpmvTransposeChunkedMatchesDense) {
  // Numerical sanity of the chunked reduction at a size where it engages.
  Rng rng(23);
  const CsrMatrix a = random_csr(600, 128, 0.1, rng);
  const DenseMatrix ad = a.to_dense();
  const auto x = random_vec(600, rng);
  ThreadPool pool(4);
  CpuBackend be = pooled_backend(pool);
  CostBreakdown cost;
  be.set_sink(&cost);
  std::vector<real_t> y(128);
  be.spmv(a, x, y, true);
  const auto ref = ref_gemv(ad, x, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-3);
  }
}

// ---- band products: the transposed spmv and the fused update ----
// |J| below one band, exactly on a band multiple and one past it, at
// each band width (1,024 / 2,048 / 4,096); row counts 40 / 200 / 700 give
// 1 / 3 / 8 reduction chunks; every case runs on a worker-less pool and
// on pools of 1 and 3 workers.

std::unique_ptr<ThreadPool> make_pool(std::size_t workers) {
  return workers == 0 ? std::make_unique<ThreadPool>(ThreadPool::NoWorkers{})
                      : std::make_unique<ThreadPool>(workers);
}

/// x with exact zeros (skipped rows, like SVM's zero coefficients) and a
/// few -0 entries among normal values.
std::vector<real_t> coefficients_like(std::size_t n, Rng& rng) {
  std::vector<real_t> x = random_vec(n, rng);
  for (std::size_t i = 0; i < n; i += 5) x[i] = real_t(0);
  for (std::size_t i = 2; i < n; i += 11) x[i] = -real_t(0);
  return x;
}

/// Calls fn(a, label) for every (|J|, rows) case above.
template <class Fn>
void for_each_band_case(Rng& rng, Fn&& fn) {
  for (const std::size_t touched :
       {341u, 2 * 1024u, 2 * 1024u + 1, 16 * 2048u, 16 * 4096u + 1}) {
    for (const std::size_t rows : {40u, 200u, 700u}) {
      const CsrMatrix a =
          testing_ref::sparse_touching(rows, touched, 0.004, rng);
      ASSERT_EQ(a.column_bands().cols.size(), touched);
      fn(a, "|J| " + std::to_string(touched) + ", " +
                std::to_string(rows) + " rows");
    }
  }
}

std::vector<real_t> gather(std::span<const real_t> w,
                           std::span<const index_t> cols) {
  std::vector<real_t> out;
  for (const index_t j : cols) out.push_back(w[j]);
  return out;
}

TEST(CpuSpmvTranspose, BandProductBitIdenticalToScatterForm) {
  Rng rng(31);
  for_each_band_case(rng, [&](const CsrMatrix& a, const std::string& what) {
    const auto x = coefficients_like(a.rows(), rng);
    const auto ref = testing_ref::bits(testing_ref::scatter_spmv_t(a, x));
    for (const std::size_t workers : {0u, 1u, 3u}) {
      const auto pool = make_pool(workers);
      CpuBackend be = pooled_backend(*pool);
      CostBreakdown cost;
      be.set_sink(&cost);
      std::vector<real_t> y(a.cols(), real_t(7));  // overwritten entirely
      be.spmv(a, x, y, /*transpose=*/true);
      EXPECT_EQ(testing_ref::bits(y), ref) << what << ", " << workers
                                           << " workers";
    }
  });
}

TEST(CpuSpmvTranspose, FusedUpdateBitIdenticalToTwoCallForm) {
  // spmv_t_axpy, and spmv_t_axpy_compact with its w_J view, against
  // the scatter form then an axpy.
  Rng rng(32);
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  for_each_band_case(rng, [&](const CsrMatrix& a, const std::string& what) {
    const auto x = coefficients_like(a.rows(), rng);
    const auto g = testing_ref::scatter_spmv_t(a, x);
    const std::span<const index_t> cols = a.column_bands().cols;
    // Untouched columns (j % 3 == 0, and past J) hold -0 and NaN: only
    // an exact w + alpha * (+0) leaves them as they are.
    auto w0 = random_vec(a.cols(), rng);
    std::vector<bool> in_j(a.cols(), false);
    for (const index_t j : cols) in_j[j] = true;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!in_j[j]) w0[j] = j % 2 == 0 ? -real_t(0) : nan;
    }
    // Negative and -0 steps are what training uses; +0 and positive ones
    // must still match the two-call form (which turns -0 into +0).
    for (const real_t alpha :
         {real_t(-0.37), -real_t(0), real_t(0), real_t(0.25)}) {
      std::vector<real_t> want = w0;
      testing_ref::axpy(alpha, g, want);
      for (const std::size_t workers : {0u, 1u, 3u}) {
        const auto pool = make_pool(workers);
        CpuBackend be = pooled_backend(*pool);
        CostBreakdown cost;
        be.set_sink(&cost);
        std::vector<real_t> w = w0;
        be.spmv_t_axpy(alpha, a, x, w);
        const std::string at = what + ", alpha " + std::to_string(alpha) +
                               ", " + std::to_string(workers) + " workers";
        EXPECT_EQ(testing_ref::bits(w), testing_ref::bits(want)) << at;
        if (std::signbit(alpha)) {
          for (std::size_t j = 0; j < a.cols(); ++j) {
            if (in_j[j]) continue;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(w[j]),
                      std::bit_cast<std::uint32_t>(w0[j]))
                << "untouched column " << j << ", " << at;
          }
        }
        // The compact form keeps J in w_J: w there holds stale values
        // (7) that must neither be read nor be overwritten.
        std::vector<real_t> wc = w0, stale = want;
        for (const index_t j : cols) wc[j] = stale[j] = real_t(7);
        std::vector<real_t> w_J = gather(w0, cols);
        be.spmv_t_axpy_compact(alpha, a, x, wc, w_J);
        EXPECT_EQ(testing_ref::bits(wc), testing_ref::bits(stale))
            << "compact, " << at;
        EXPECT_EQ(testing_ref::bits(w_J),
                  testing_ref::bits(gather(want, cols)))
            << "compact view, " << at;
      }
    }
  });
}

void expect_same_cost(const CostBreakdown& a, const CostBreakdown& b) {
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.bytes_streamed, b.bytes_streamed);
  EXPECT_EQ(a.bytes_random, b.bytes_random);
  EXPECT_EQ(a.model_reads, b.model_reads);
  EXPECT_EQ(a.model_writes, b.model_writes);
  EXPECT_EQ(a.write_conflicts, b.write_conflicts);
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.gpu_cycles, b.gpu_cycles);
}

TEST(CpuSpmvTranspose, FusedUpdateChargesTheTwoCallCost) {
  Rng rng(33);
  const CsrMatrix a = testing_ref::sparse_with_gaps(200, 5000, 0.01, rng);
  const auto x = random_vec(200, rng);
  // A non-round starting ledger, so the charges must be the same adds in
  // the same order (not just the same totals).
  CostBreakdown start;
  start.flops = 0.1;
  start.bytes_streamed = 0.3;
  start.bytes_random = 0.7;
  start.kernel_launches = 5;
  ThreadPool pool(2);
  CostBreakdown fused = start, compact = start, two_call = start;
  CpuBackend be = pooled_backend(pool);
  std::vector<real_t> w(5000, real_t(1)), g(5000);
  be.set_sink(&fused);
  be.spmv_t_axpy(real_t(-0.5), a, x, w);
  be.set_sink(&compact);
  std::vector<real_t> w_J = gather(w, a.column_bands().cols);
  be.spmv_t_axpy_compact(real_t(-0.5), a, x, w, w_J);
  be.set_sink(&two_call);
  be.spmv(a, x, g, /*transpose=*/true);
  be.axpy(real_t(-0.5), g, w);
  expect_same_cost(fused, two_call);
  expect_same_cost(compact, two_call);
}

TEST(Backend, DefaultCompactUpdateTakesJFromTheView) {
  // GpuBackend keeps Backend's spmv_t_axpy_compact: w over J is stale on
  // entry and comes from w_J, and the result is its own spmv_t_axpy's,
  // charged the same.
  Rng rng(34);
  const CsrMatrix a = testing_ref::sparse_with_gaps(120, 900, 0.02, rng);
  const auto x = random_vec(120, rng);
  const auto w0 = random_vec(900, rng);
  const std::span<const index_t> cols = a.column_bands().cols;
  gpusim::Device dev(paper_gpu());
  GpuBackend be(dev);
  CostBreakdown plain, compact;
  be.set_sink(&plain);
  std::vector<real_t> want = w0;
  be.spmv_t_axpy(real_t(-0.5), a, x, want);
  be.set_sink(&compact);
  std::vector<real_t> w = w0;
  for (const index_t j : cols) w[j] = real_t(7);
  std::vector<real_t> w_J = gather(w0, cols);
  be.spmv_t_axpy_compact(real_t(-0.5), a, x, w, w_J);
  EXPECT_EQ(testing_ref::bits(w_J), testing_ref::bits(gather(want, cols)));
  EXPECT_EQ(testing_ref::bits(w), testing_ref::bits(want));
  expect_same_cost(compact, plain);
}

TEST(CsrColumnBands, BandWidthIsTheWidestGivingSixteenBands) {
  EXPECT_EQ(CsrColumnBands::band_cols_for(0), 1024u);
  EXPECT_EQ(CsrColumnBands::band_cols_for(3273), 1024u);  // rcv1 at 1/400
  EXPECT_EQ(CsrColumnBands::band_cols_for(16 * 2048 - 1), 1024u);
  EXPECT_EQ(CsrColumnBands::band_cols_for(16 * 2048), 2048u);
  EXPECT_EQ(CsrColumnBands::band_cols_for(16 * 4096 - 1), 2048u);
  EXPECT_EQ(CsrColumnBands::band_cols_for(16 * 4096), 4096u);
  EXPECT_EQ(CsrColumnBands::band_cols_for(70621), 4096u);  // news
  EXPECT_EQ(CsrColumnBands::band_cols_for(std::size_t{1} << 30), 4096u);
}

TEST(CsrColumnBands, ListsTouchedColumnsInBandsRowByRow) {
  // Three bands, the last one column wide; every stored entry appears
  // exactly once, at its row's segment in its column's band.
  Rng rng(34);
  const CsrMatrix a =
      testing_ref::sparse_touching(50, 2 * 1024 + 1, 0.01, rng);
  const DenseMatrix ad = a.to_dense();
  const CsrColumnBands& cb = a.column_bands();
  ASSERT_EQ(cb.cols.size(), 2 * 1024u + 1);
  ASSERT_EQ(cb.band_cols, 1024u);
  for (std::size_t p = 0; p < cb.cols.size(); ++p) {
    EXPECT_EQ(cb.cols[p], p + p / 2 + 1) << "J in increasing order";
  }
  ASSERT_EQ(cb.bands(), 3u);
  EXPECT_EQ(cb.band_begin(2), 2 * 1024u);
  EXPECT_EQ(cb.band_width(0), 1024u);
  EXPECT_EQ(cb.band_width(2), 1u);
  ASSERT_EQ(cb.seg_ptr.size(), cb.seg_row.size() + 1);
  EXPECT_EQ(cb.band_seg.back(), cb.seg_row.size());
  EXPECT_EQ(cb.seg_ptr.back(), a.nnz());
  ASSERT_EQ(cb.pos.size(), a.nnz());
  std::vector<std::size_t> row_entries(a.rows(), 0);
  for (std::size_t b = 0; b < cb.bands(); ++b) {
    for (offset_t s = cb.band_seg[b]; s < cb.band_seg[b + 1]; ++s) {
      if (s > cb.band_seg[b]) {
        EXPECT_LT(cb.seg_row[s - 1], cb.seg_row[s]) << "band " << b;
      }
      EXPECT_LT(cb.seg_ptr[s], cb.seg_ptr[s + 1]) << "empty segment";
      for (offset_t k = cb.seg_ptr[s]; k < cb.seg_ptr[s + 1]; ++k) {
        if (k > cb.seg_ptr[s]) {
          EXPECT_LT(cb.pos[k - 1], cb.pos[k]);
        }
        ASSERT_LT(cb.pos[k], cb.band_width(b));
        EXPECT_EQ(cb.vals[k],
                  ad.at(cb.seg_row[s], cb.cols[cb.band_begin(b) + cb.pos[k]]));
        ++row_entries[cb.seg_row[s]];
      }
    }
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(row_entries[r], a.row_nnz(r)) << "row " << r;
  }
  // A copy has equal contents and builds its own layout.
  const CsrMatrix b = a;
  EXPECT_NE(&b.column_bands(), &cb);
  EXPECT_EQ(b.column_bands().seg_row, cb.seg_row);
  EXPECT_TRUE(b == a);
}

TEST(CsrColumnBands, RowDotsMatchExampleViewDot) {
  // Any row range, read from w_J, gives ExampleView::dot over w bit for
  // bit.
  Rng rng(36);
  const CsrMatrix a =
      testing_ref::sparse_touching(300, 16 * 2048 + 1, 0.001, rng);
  const auto w = random_vec(a.cols(), rng);
  const std::vector<real_t> w_J = gather(w, a.column_bands().cols);
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 300},
                               {0, 1}, {37, 101}, {299, 300}}) {
    std::vector<double> z(hi - lo);
    a.column_bands().row_dots(w_J, lo, hi, z.data());
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(z[i - lo]),
                std::bit_cast<std::uint64_t>(
                    ExampleView::sparse(a.row(i)).dot(w)))
          << "row " << i;
    }
  }
}

TEST(CsrColumnBands, ConcurrentFirstRequestsShareOneLayout) {
  // Lazily built on first use: two threads racing for it must both get
  // the one fully built layout (the TSan lane runs this case).
  Rng rng(35);
  const CsrMatrix a = random_csr(300, 200, 0.05, rng);
  const CsrColumnBands* seen[2] = {nullptr, nullptr};
  std::size_t entries[2] = {0, 0};
  std::thread t0([&] {
    seen[0] = &a.column_bands();
    entries[0] = seen[0]->vals.size();
  });
  std::thread t1([&] {
    seen[1] = &a.column_bands();
    entries[1] = seen[1]->vals.size();
  });
  t0.join();
  t1.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(entries[0], a.nnz());
  EXPECT_EQ(entries[1], a.nnz());
}

/// A^T x as the sequential loop: rows in increasing order, x[r] == 0
/// (either sign) skipped, float mul then add into +0-started sums.
std::vector<real_t> sequential_gemv_t(const DenseMatrix& a,
                                      std::span<const real_t> x) {
  std::vector<real_t> y(a.cols(), real_t(0));
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const real_t s = x[r];
    if (s == real_t(0)) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += s * a.at(r, j);
  }
  return y;
}

TEST(CpuGemvTranspose, BitIdenticalToSequentialFold) {
  // Widths around one 16-column panel and past one 1,024-column slice;
  // the 5,000- and 16,000-row cases are wide enough in elements to run
  // on several tasks (54 columns on 2, 500 on 19, 1,025 on 39; 17
  // columns on 2), with panels split unevenly among them.
  Rng rng(37);
  for (const std::size_t rows : {300u, 5000u, 16000u}) {
    for (const std::size_t d : {1u, 15u, 16u, 17u, 54u, 500u, 1025u}) {
      if (rows * d > 6'000'000) continue;
      const DenseMatrix a = random_dense(rows, d, rng);
      const auto x = coefficients_like(rows, rng);
      const auto ref = testing_ref::bits(sequential_gemv_t(a, x));
      for (const std::size_t workers : {0u, 1u, 3u}) {
        const auto pool = make_pool(workers);
        CpuBackend be = pooled_backend(*pool);
        CostBreakdown cost;
        be.set_sink(&cost);
        std::vector<real_t> y(d, real_t(7));  // overwritten entirely
        be.gemv(a, x, y, /*transpose=*/true);
        EXPECT_EQ(testing_ref::bits(y), ref)
            << rows << " x " << d << ", " << workers << " workers";
      }
    }
  }
}

TEST(CpuGemv, EmptyShapes) {
  // No rows or no columns, both directions, at det=off and det=on.
  ThreadPool pool(3);
  CostBreakdown cost;
  for (const bool det : {false, true}) {
    CpuBackend b(CpuBackendOptions{.pool = &pool, .deterministic = det});
    b.set_sink(&cost);
    const DenseMatrix no_rows(0, 5), no_cols(5, 0);
    std::vector<real_t> y5(5, real_t(7)), y0;
    b.gemv(no_rows, {}, y5, /*transpose=*/true);
    EXPECT_EQ(y5, std::vector<real_t>(5, real_t(0)));
    b.gemv(no_rows, y5, y0, /*transpose=*/false);
    y5.assign(5, real_t(7));
    b.gemv(no_cols, {}, y5, /*transpose=*/false);
    EXPECT_EQ(y5, std::vector<real_t>(5, real_t(0))) << "det " << det;
    b.gemv(no_cols, y5, y0, /*transpose=*/true);
  }
}

/// The kernel tables this host can run, the scalar reference included.
std::vector<const kernel::Kernels*> runnable_kernels() {
  std::vector<const kernel::Kernels*> out = {&kernel::scalar_kernels()};
  for (const auto v : {kernel::KernelVariant::kAvx2,
                       kernel::KernelVariant::kAvx512}) {
    if (kernel::variant_available(v)) out.push_back(&kernel::kernels(v));
  }
  return out;
}

TEST(DenseExampleBlocks, FeatureMajorBlocksZeroPastTheLastRow) {
  Rng rng(38);
  const DenseMatrix a = random_dense(19, 5, rng);
  for (const std::size_t lanes : {1u, 8u, 16u}) {
    const DenseExampleBlocks& eb = a.example_blocks(lanes);
    ASSERT_EQ(eb.lanes, lanes);
    ASSERT_EQ(eb.vals.size(), (19 + lanes - 1) / lanes * lanes * 5);
    for (std::size_t r = 0; r < eb.vals.size() / 5; ++r) {
      for (std::size_t p = 0; p < 5; ++p) {
        const real_t v = eb.block(r / lanes)[p * lanes + r % lanes];
        EXPECT_EQ(v, r < 19 ? a.at(r, p) : real_t(0))
            << lanes << " lanes, row " << r << ", feature " << p;
      }
    }
  }
  EXPECT_EQ(&a.example_blocks(8), &a.example_blocks(8));
}

TEST(DenseExampleBlocks, RowDotsMatchExampleViewDotOnEveryVariant) {
  // Any row range, through any kernel variant's block_gemm, gives
  // ExampleView::dot bit for bit; covtype's 54 features.
  Rng rng(39);
  for (const kernel::Kernels* kn : runnable_kernels()) {
    const std::size_t lanes = kn->lanes;
    for (const std::size_t rows :
         {std::size_t{1}, lanes - 1, lanes, lanes + 1, std::size_t{1452}}) {
      if (rows == 0) continue;
      const DenseMatrix a = random_dense(rows, 54, rng);
      const auto w = random_vec(54, rng);
      for (const auto& [lo, hi] :
           {std::pair<std::size_t, std::size_t>{0, rows},
            {rows / 2, rows},
            {rows / 3, rows - rows / 3}}) {
        std::vector<double> z(hi - lo);
        dense_row_dots(*kn, a, w, lo, hi, z.data());
        for (std::size_t i = lo; i < hi; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(z[i - lo]),
                    std::bit_cast<std::uint64_t>(
                        ExampleView::dense(a.row(i)).dot(w)))
              << kernel::to_string(kn->variant) << ", " << rows
              << " rows, row " << i;
        }
      }
    }
  }
}

TEST(DenseExampleBlocks, DeterministicGemvIsExampleViewDot) {
  // The forward gemv at det=on takes its margins from the example
  // blocks; 5,000 rows run on two tasks.
  Rng rng(40);
  for (const std::size_t rows : {1u, 17u, 1452u, 5000u}) {
    const DenseMatrix a = random_dense(rows, 54, rng);
    const auto w = random_vec(54, rng);
    std::vector<real_t> ref(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      ref[i] = static_cast<real_t>(ExampleView::dense(a.row(i)).dot(w));
    }
    for (const std::size_t workers : {0u, 1u, 3u}) {
      const auto pool = make_pool(workers);
      CpuBackend be = pooled_backend(*pool);
      CostBreakdown cost;
      be.set_sink(&cost);
      std::vector<real_t> y(rows);
      be.gemv(a, w, y, /*transpose=*/false);
      EXPECT_EQ(testing_ref::bits(y), testing_ref::bits(ref))
          << rows << " rows, " << workers << " workers";
    }
  }
}

TEST(DenseExampleBlocks, ConcurrentFirstRequestsShareOneLayout) {
  // Lazily built on first use: two threads racing for it must both get
  // the one fully built layout (the TSan lane runs this case).
  Rng rng(41);
  const DenseMatrix a = random_dense(300, 54, rng);
  const DenseExampleBlocks* seen[2] = {nullptr, nullptr};
  real_t last[2] = {0, 0};
  const auto request = [&](int t) {
    seen[t] = &a.example_blocks(16);
    last[t] = seen[t]->block(18)[53 * 16 + 11];  // row 299, feature 53
  };
  std::thread t0(request, 0);
  std::thread t1(request, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(last[0], a.at(299, 53));
  EXPECT_EQ(last[1], a.at(299, 53));
}

TEST(DenseExampleBlocks, CopiesAndWritesDropTheLayout) {
  Rng rng(42);
  const DenseMatrix a = random_dense(20, 3, rng);
  DenseMatrix b = random_dense(20, 3, rng);
  const auto block0 = [](const DenseMatrix& m) {
    const DenseExampleBlocks& eb = m.example_blocks(8);
    return std::vector<real_t>(eb.block(0), eb.block(0) + 8 * 3);
  };
  const std::vector<real_t> a0 = block0(a);
  ASSERT_NE(block0(b), a0);
  b = a;  // copy-assigning drops b's layout of its old rows
  EXPECT_EQ(block0(b), a0);
  EXPECT_NE(&b.example_blocks(8), &a.example_blocks(8));
  const DenseMatrix c(a);  // a copy starts without one
  EXPECT_NE(&c.example_blocks(8), &a.example_blocks(8));
  EXPECT_EQ(block0(c), a0);
  b.at(0, 0) = real_t(42);  // a write drops it too
  EXPECT_EQ(b.example_blocks(8).block(0)[0], real_t(42));
  b.fill(real_t(3));
  EXPECT_EQ(b.example_blocks(8).block(0)[8 + 1], real_t(3));
}

TEST(DenseExampleBlocks, ConcurrentWritersDropTheLayout) {
  // Pool workers writing disjoint rows of a matrix with a cached layout
  // all drop it at once (the TSan lane runs this case).
  DenseMatrix b(64, 3);
  ASSERT_EQ(b.example_blocks(8).block(7)[7], real_t(0));
  ThreadPool pool(3);
  pool.parallel_for(64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) b.row(r)[0] = real_t(r);
  });
  for (std::size_t r = 0; r < 64; ++r) {
    EXPECT_EQ(b.example_blocks(8).block(r / 8)[r % 8], real_t(r));
  }
}

TEST(CpuBackendDeterminism, GemmBlockedBitIdenticalToNaive) {
  // Odd sizes straddling every block boundary (Mc/Nc = 64, Kc = 128);
  // per-element double accumulation in increasing k must make the blocked
  // kernel bit-identical to the naive triple loop.
  Rng rng(24);
  const std::size_t m = 67, k = 130, n = 65;
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      const DenseMatrix a =
          trans_a ? random_dense(k, m, rng) : random_dense(m, k, rng);
      const DenseMatrix b =
          trans_b ? random_dense(n, k, rng) : random_dense(k, n, rng);
      ThreadPool pool(2);
      CpuBackend be = pooled_backend(pool);
      CostBreakdown cost;
      be.set_sink(&cost);
      DenseMatrix c(m, n);
      be.gemm(a, b, c, trans_a, trans_b);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double acc = 0;
          for (std::size_t p = 0; p < k; ++p) {
            const real_t av = trans_a ? a.at(p, i) : a.at(i, p);
            const real_t bv = trans_b ? b.at(j, p) : b.at(p, j);
            acc += static_cast<double>(av) * static_cast<double>(bv);
          }
          ASSERT_EQ(c.at(i, j), static_cast<real_t>(acc))
              << "at (" << i << "," << j << ") trans_a=" << trans_a
              << " trans_b=" << trans_b;
        }
      }
    }
  }
}

TEST(GpuBackendCost, SpmvChargesCycles) {
  Rng rng(13);
  gpusim::Device dev(paper_gpu());
  GpuBackend be(dev);
  CostBreakdown cost;
  be.set_sink(&cost);
  const CsrMatrix a = random_csr(100, 200, 0.1, rng);
  const auto x = random_vec(200, rng);
  std::vector<real_t> y(100);
  be.spmv(a, x, y, false);
  EXPECT_GT(cost.gpu_cycles, 0);
  EXPECT_GT(cost.kernel_launches, 0);
}

TEST(GpuBackendCost, ScatterAtomicsCountConflicts) {
  // spmv-transpose scatters with atomics; colliding columns conflict.
  gpusim::Device dev(paper_gpu());
  GpuBackend be(dev);
  CostBreakdown cost;
  be.set_sink(&cost);
  // All rows share column 0 -> heavy atomic conflicts.
  CsrMatrix::Builder b(4);
  for (int r = 0; r < 64; ++r) {
    const index_t idx[] = {0};
    const real_t val[] = {1};
    b.add_row(idx, val);
  }
  const CsrMatrix a = std::move(b).build();
  std::vector<real_t> x(64, 1), y(4);
  be.spmv(a, x, y, true);
  EXPECT_GT(cost.write_conflicts, 0);
  EXPECT_NEAR(y[0], 64.0, 1e-4);  // atomics lose nothing
}

TEST(GpuBackendCost, DenseGemvCheaperPerByteThanScatteredSpmv) {
  // Equal bytes moved: the dense streaming kernel should finish in fewer
  // cycles than a scatter-heavy sparse one (coalescing).
  Rng rng(14);
  gpusim::Device dev(paper_gpu());
  GpuBackend be(dev);
  CostBreakdown dense_cost, sparse_cost;

  const std::size_t n = 256, d = 512;
  const DenseMatrix a = random_dense(n, d, rng);
  const auto x = random_vec(d, rng);
  std::vector<real_t> y(n);
  be.set_sink(&dense_cost);
  be.gemv(a, x, y, false);

  // Sparse with same nnz as the dense element count, scattered columns.
  const CsrMatrix s = random_csr(n, 100000, d / 100000.0, rng);
  std::vector<real_t> xs(100000, 1), ys(n);
  be.set_sink(&sparse_cost);
  be.spmv(s, xs, ys, false);

  const double dense_cycles_per_nnz =
      dense_cost.gpu_cycles / static_cast<double>(n * d);
  const double sparse_cycles_per_nnz =
      sparse_cost.gpu_cycles / std::max<double>(1, s.nnz());
  EXPECT_LT(dense_cycles_per_nnz, sparse_cycles_per_nnz);
}

}  // namespace
}  // namespace parsgd::linalg
