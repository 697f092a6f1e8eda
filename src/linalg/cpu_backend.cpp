#include "linalg/cpu_backend.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace parsgd::linalg {

namespace {

inline double sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

// ---- transposed-spmv reduction grid ----
// Each column of the transposed spmv folds its rows into one accumulator
// per chunk of a row grid that depends only on the matrix shape (never on
// the pool size), then folds the accumulators in chunk order, so every
// rounding decision is identical whether 1, 2 or 56 workers execute it.
constexpr std::size_t kSpmvChunkRows = 64;
constexpr std::size_t kSpmvMaxChunks = 8;

inline std::size_t spmv_reduce_chunks(std::size_t m) {
  return std::clamp<std::size_t>(m / kSpmvChunkRows, 1, kSpmvMaxChunks);
}

/// A^T x over the bands of A's touched columns (CsrMatrix::column_bands),
/// each band on exactly one task, which then calls write(p0, g, width)
/// with g[q] = (A^T x)[cols[p0 + q]] for its band's positions.
///
/// The row grid splits the m rows evenly into spmv_reduce_chunks(m)
/// chunks, the first m % chunks of them one row longer. A band scatters
/// each chunk's rows, in increasing order and skipping x[r] == 0, into a
/// +0-started band-wide accumulator, and folds the accumulators into the
/// band's sum in chunk order. That is the arithmetic of scattering each
/// chunk into its own zeroed d-vector and merging the vectors in chunk
/// order, bit for bit, for every band width and schedule. A chunk that
/// scattered nothing is skipped, and the first that did scatters straight
/// into the zeroed sum: both only drop additions of +0 to a value that is
/// never -0 (an accumulator that starts at +0 cannot become -0), which
/// are exact.
template <class Write>
void band_products(ThreadPool& pool, const CsrMatrix& a,
                   std::span<const real_t> x, Write&& write) {
  constexpr std::size_t kMaxBand = CsrColumnBands::kMaxBandCols;
  const CsrColumnBands& cb = a.column_bands();
  const std::size_t m = a.rows(), chunks = spmv_reduce_chunks(m);
  std::size_t chunk_end[kSpmvMaxChunks];
  for (std::size_t c = 0, end = 0; c < chunks; ++c) {
    end += m / chunks + (c < m % chunks ? 1 : 0);
    chunk_end[c] = end;
  }
  pool.parallel_for(cb.bands(), [&](std::size_t lo, std::size_t hi) {
    real_t sum[kMaxBand];
    real_t acc[kMaxBand];  // +0 between chunks: the fold clears it
    std::fill(acc, acc + cb.band_cols, real_t(0));
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t width = cb.band_width(b);
      std::fill(sum, sum + width, real_t(0));
      real_t* dst = sum;  // until the first scattering chunk is done
      bool open = false;  // the current chunk has scattered
      const auto close = [&] {
        if (!open) return;
        if (dst == acc) {
          for (std::size_t q = 0; q < width; ++q) {
            sum[q] += acc[q];
            acc[q] = real_t(0);
          }
        }
        dst = acc;
        open = false;
      };
      std::size_t c = 0;
      for (offset_t s = cb.band_seg[b]; s < cb.band_seg[b + 1]; ++s) {
        const index_t r = cb.seg_row[s];
        if (r >= chunk_end[c]) {
          close();
          while (r >= chunk_end[c]) ++c;
        }
        const real_t xr = x[r];
        if (xr == real_t(0)) continue;
        open = true;
        for (offset_t k = cb.seg_ptr[s]; k < cb.seg_ptr[s + 1]; ++k) {
          dst[cb.pos[k]] += xr * cb.vals[k];
        }
      }
      close();
      write(cb.band_begin(b), static_cast<const real_t*>(sum), width);
    }
  });
}

// ---- dense gemv ----
// A task gets at least kGemvTaskElems elements of A (512 KB): below that
// the fork/join costs more than it saves, and covtype at 1/400 scale
// (1,452 x 54) runs on the caller. The transposed product cuts y into
// panels of one cache line, folded into a stack accumulator of at most
// kGemvSliceCols floats (4 KB, L1-resident) at a time. The forward
// product at det=on takes its margins kMarginRows rows at a time (a
// multiple of every lane count).
constexpr std::size_t kGemvTaskElems = std::size_t{1} << 17;
constexpr std::size_t kGemvPanelCols = 16;
constexpr std::size_t kGemvSliceCols = 1024;
constexpr std::size_t kMarginRows = 256;

// ---- blocked GEMM ----
// Cache-block sizes: the B panel (kKc x kNc floats = 32 KB) stays
// L1-resident across the i loop, the accumulator tile (kMc x kNc doubles
// = 32 KB) lives on the executing thread's stack.
constexpr std::size_t kGemmMc = 64;
constexpr std::size_t kGemmKc = 128;
constexpr std::size_t kGemmNc = 64;

/// Returns a row-major view of op(src) (rows x cols): the original data
/// when not transposed, otherwise a packed copy in `scratch`. This
/// resolves the transpose flag once per call instead of per element.
const real_t* resolve_operand(const DenseMatrix& src, bool trans,
                              std::size_t rows, std::size_t cols,
                              std::vector<real_t>& scratch) {
  if (!trans) return src.data().data();
  scratch.resize(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    real_t* dst = scratch.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) dst[j] = src.at(j, i);
  }
  return scratch.data();
}

/// C rows [lo, hi) of the m x n product A' (m x k) * B' (k x n), both
/// row-major with transposes already resolved. Blocked over i/k/j with the
/// dispatched micro-tile kernel in the middle; each output element
/// accumulates its k products into one double in increasing-k order, so
/// the result is bit-identical to the naive triple loop (the vectorized
/// micro-tile preserves that order exactly, see kernel/kernels.hpp).
void gemm_block_rows(const kernel::Kernels& kn, const real_t* ap,
                     const real_t* bp, DenseMatrix& c, std::size_t lo,
                     std::size_t hi, std::size_t n, std::size_t k) {
  double acc[kGemmMc * kGemmNc];
  for (std::size_t jb = 0; jb < n; jb += kGemmNc) {
    const std::size_t nc = std::min(kGemmNc, n - jb);
    for (std::size_t ib = lo; ib < hi; ib += kGemmMc) {
      const std::size_t mc = std::min(kGemmMc, hi - ib);
      std::fill(acc, acc + mc * nc, 0.0);
      for (std::size_t pb = 0; pb < k; pb += kGemmKc) {
        const std::size_t kc = std::min(kGemmKc, k - pb);
        for (std::size_t i = 0; i < mc; ++i) {
          kn.gemm_tile(ap + (ib + i) * k + pb, bp + pb * n + jb, n,
                       acc + i * nc, kc, nc);
        }
      }
      for (std::size_t i = 0; i < mc; ++i) {
        real_t* crow = c.row(ib + i).data() + jb;
        for (std::size_t j = 0; j < nc; ++j) {
          crow[j] = static_cast<real_t>(acc[i * nc + j]);
        }
      }
    }
  }
}

}  // namespace

void dense_row_dots(const kernel::Kernels& kn, const DenseMatrix& a,
                    std::span<const real_t> w, std::size_t lo,
                    std::size_t hi, double* z) {
  constexpr std::size_t kMaxLanes = 16;
  const std::size_t lanes = kn.lanes, d = a.cols();
  PARSGD_CHECK(w.size() == d && lo <= hi && hi <= a.rows() &&
               lanes <= kMaxLanes);
  // One lane is the row itself: no layout to build.
  const DenseExampleBlocks* eb =
      lanes > 1 && lo < hi ? &a.example_blocks(lanes) : nullptr;
  double acc[kMaxLanes];
  for (std::size_t k = lo / lanes; k * lanes < hi; ++k) {
    std::fill(acc, acc + lanes, 0.0);
    kn.block_gemm(eb != nullptr ? eb->block(k) : a.row(k).data(), w.data(),
                  1, acc, d, 1);
    const std::size_t first = std::max(lo, k * lanes);
    const std::size_t last = std::min(hi, k * lanes + lanes);
    for (std::size_t i = first; i < last; ++i) z[i - lo] = acc[i - k * lanes];
  }
}

CpuBackend::CpuBackend(const CpuBackendOptions& opts)
    : opts_(opts),
      simd_(&kernel::active_kernels()),
      reduce_(opts.deterministic ? &kernel::scalar_kernels() : simd_) {
  PARSGD_CHECK(opts_.threads >= 1);
}

std::string CpuBackend::name() const {
  return "cpu(" + std::to_string(opts_.threads) + ")";
}

void CpuBackend::gemv(const DenseMatrix& a, std::span<const real_t> x,
                      std::span<real_t> y, bool transpose) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  const std::size_t m = a.rows(), n = a.cols();
  // Either direction cuts its output into `units` and gives each task a
  // run of them, of at least kGemvTaskElems elements of A.
  const auto for_each_run = [&](std::size_t units, auto&& fn) {
    if (units == 0) return;
    const std::size_t tasks =
        std::clamp<std::size_t>(m * n / kGemvTaskElems, 1, units);
    pool().parallel_for(tasks, [&](std::size_t lo, std::size_t hi) {
      fn(lo * units / tasks, hi * units / tasks);
    });
  };
  if (!transpose && opts_.deterministic) {
    PARSGD_CHECK(x.size() == n && y.size() == m);
    // Scalar-order margins, examples in lanes over the cached example
    // blocks (dense_row_dots); the units are whole blocks.
    const std::size_t lanes = simd_->lanes;
    for_each_run((m + lanes - 1) / lanes, [&](std::size_t b0,
                                              std::size_t b1) {
      double z[kMarginRows];
      const std::size_t end = std::min(m, b1 * lanes);
      for (std::size_t r0 = b0 * lanes; r0 < end; r0 += kMarginRows) {
        const std::size_t r1 = std::min(end, r0 + kMarginRows);
        dense_row_dots(*simd_, a, x, r0, r1, z);
        for (std::size_t r = r0; r < r1; ++r) {
          y[r] = static_cast<real_t>(z[r - r0]);
        }
      }
    });
  } else if (!transpose) {
    PARSGD_CHECK(x.size() == n && y.size() == m);
    pool().parallel_for(m, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        y[r] = static_cast<real_t>(
            reduce_->dot(a.row(r).data(), x.data(), n));
      }
    });
  } else {
    PARSGD_CHECK(x.size() == m && y.size() == n);
    // Row-major A^T x, parallelized by partitioning the *output*: the
    // units are panels of kGemvPanelCols columns (one cache line of y).
    // A task folds its panels into a stack accumulator one slice at a
    // time and writes each slice of y once. Every y[c] sees the rows in
    // increasing r order from +0, the arithmetic of the sequential loop,
    // for every schedule; each element of A is streamed once.
    for_each_run((n + kGemvPanelCols - 1) / kGemvPanelCols,
                 [&](std::size_t p0, std::size_t p1) {
      real_t acc[kGemvSliceCols];
      const std::size_t end = std::min(n, p1 * kGemvPanelCols);
      for (std::size_t c0 = p0 * kGemvPanelCols; c0 < end;
           c0 += kGemvSliceCols) {
        const std::size_t width = std::min(kGemvSliceCols, end - c0);
        std::fill(acc, acc + width, real_t(0));
        simd_->gemv_t_band(a.data().data() + c0, n, m, x.data(), acc, width);
        std::copy(acc, acc + width, y.begin() + c0);
      }
    });
  }
  sink().flops += 2.0 * static_cast<double>(m) * static_cast<double>(n);
  sink().bytes_streamed += static_cast<double>(a.bytes()) +
                           static_cast<double>((x.size() + y.size()) *
                                               sizeof(real_t));
}

void CpuBackend::spmv(const CsrMatrix& a, std::span<const real_t> x,
                      std::span<real_t> y, bool transpose) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  const std::size_t m = a.rows(), n = a.cols();
  if (!transpose) {
    PARSGD_CHECK(x.size() == n && y.size() == m);
    pool().parallel_for(m, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        const auto rv = a.row(r);
        y[r] = static_cast<real_t>(
            reduce_->spmv_row(rv.val.data(), rv.idx.data(), rv.nnz(),
                              x.data()));
      }
    });
  } else {
    PARSGD_CHECK(x.size() == m && y.size() == n);
    // Band products over the touched columns J; every other column of
    // A^T x is exactly +0.
    std::fill(y.begin(), y.end(), real_t(0));
    const std::span<const index_t> cols = a.column_bands().cols;
    band_products(pool(), a, x,
                  [&](std::size_t p0, const real_t* g, std::size_t width) {
                    for (std::size_t q = 0; q < width; ++q) {
                      y[cols[p0 + q]] = g[q];
                    }
                  });
  }
  // Gathers from x (or, charged as the scatter form the transposed fold
  // reproduces, scatters into y) are random at the granularity of the
  // column pattern.
  sink().bytes_random += static_cast<double>(a.nnz()) * sizeof(real_t);
  sink().flops += 2.0 * static_cast<double>(a.nnz());
  sink().bytes_streamed += static_cast<double>(a.bytes());
}

void CpuBackend::spmv_t_axpy(real_t alpha, const CsrMatrix& a,
                             std::span<const real_t> x,
                             std::span<real_t> y) {
  band_axpy(alpha, a, x, y, {});
}

void CpuBackend::spmv_t_axpy_compact(real_t alpha, const CsrMatrix& a,
                                     std::span<const real_t> x,
                                     std::span<real_t> y,
                                     std::span<real_t> y_J) {
  PARSGD_CHECK(y_J.size() == a.column_bands().cols.size());
  band_axpy(alpha, a, x, y, y_J);
}

void CpuBackend::band_axpy(real_t alpha, const CsrMatrix& a,
                           std::span<const real_t> x, std::span<real_t> y,
                           std::span<real_t> y_J) {
  const std::size_t m = a.rows(), n = a.cols();
  PARSGD_CHECK(x.size() == m && y.size() == n);
  // y[j] += alpha * g[j] with g = A^T x (the axpy kernel's float
  // mul-then-add), written only on the touched columns J, by the task
  // that owns j's band. With y_J, y over J is neither read nor written:
  // the update goes to y_J alone, a compact array, where scattering it
  // into y would touch one line of y per touched column.
  const std::span<const index_t> cols = a.column_bands().cols;
  if (y_J.empty()) {
    band_products(pool(), a, x,
                  [&](std::size_t p0, const real_t* g, std::size_t width) {
                    for (std::size_t q = 0; q < width; ++q) {
                      y[cols[p0 + q]] += alpha * g[q];
                    }
                  });
  } else {
    band_products(pool(), a, x,
                  [&](std::size_t p0, const real_t* g, std::size_t width) {
                    real_t* yj = y_J.data() + p0;
                    for (std::size_t q = 0; q < width; ++q) {
                      yj[q] += alpha * g[q];
                    }
                  });
  }
  // Outside J, g[j] is +0. For a negative finite alpha (every gradient
  // step) alpha * +0 is -0, and y + -0 == y bit for bit, -0 and NaN
  // included. Any other alpha turns -0 into +0 (or y into NaN), so apply
  // the zero term to the untouched columns too.
  if (!(std::signbit(alpha) && std::isfinite(alpha))) {
    const real_t zero_term = alpha * real_t(0);
    std::size_t j = 0;
    for (const index_t touched : cols) {
      for (; j < touched; ++j) y[j] += zero_term;
      j = touched + std::size_t{1};
    }
    for (; j < n; ++j) y[j] += zero_term;
  }
  // Charged analytically from the dense shape, field by field in the
  // order of spmv(transpose) followed by a d-length axpy, so modeled
  // costs match the two-call form exactly.
  CostBreakdown& c = sink();
  c.kernel_launches += 1;
  c.bytes_random += static_cast<double>(a.nnz()) * sizeof(real_t);
  c.flops += 2.0 * static_cast<double>(a.nnz());
  c.bytes_streamed += static_cast<double>(a.bytes());
  c.kernel_launches += 1;
  c.flops += 2.0 * static_cast<double>(n);
  c.bytes_streamed += 3.0 * static_cast<double>(n) * sizeof(real_t);
}

void CpuBackend::gemm(const DenseMatrix& a, const DenseMatrix& b,
                      DenseMatrix& c, bool trans_a, bool trans_b) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t kb = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  PARSGD_CHECK(k == kb, "gemm inner dims " << k << " vs " << kb);
  PARSGD_CHECK(c.rows() == m && c.cols() == n);

  // Resolve the transpose flags once per call: transposed operands are
  // packed row-major into reusable scratch, untransposed ones are used
  // in place. The blocked kernel then runs branch-free.
  const real_t* ap = resolve_operand(a, trans_a, m, k, pack_a_);
  const real_t* bp = resolve_operand(b, trans_b, k, n, pack_b_);

  // ViennaCL threshold: parallelize only when the result is big enough.
  last_gemm_parallel_ =
      opts_.threads > 1 && m * n >= opts_.gemm_parallel_threshold;

  if (last_gemm_parallel_) {
    pool().parallel_for(m, [&](std::size_t lo, std::size_t hi) {
      gemm_block_rows(*simd_, ap, bp, c, lo, hi, n, k);
    });
  } else {
    gemm_block_rows(*simd_, ap, bp, c, 0, m, n, k);
    if (opts_.threads > 1) {
      gemm_serial_flops_ += 2.0 * static_cast<double>(m) * n * k;
    }
  }

  sink().flops += 2.0 * static_cast<double>(m) * n * k;
  sink().bytes_streamed += static_cast<double>(a.bytes()) +
                           static_cast<double>(b.bytes()) +
                           static_cast<double>(c.bytes());
}

void CpuBackend::spmm(const CsrMatrix& a, const DenseMatrix& b,
                      DenseMatrix& c) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(a.cols() == b.rows());
  PARSGD_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  const std::size_t n = b.cols();
  pool().parallel_for(
      a.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          auto out = c.row(r);
          std::fill(out.begin(), out.end(), real_t(0));
          const auto rv = a.row(r);
          for (std::size_t kk = 0; kk < rv.nnz(); ++kk) {
            simd_->axpy(rv.val[kk], b.row(rv.idx[kk]).data(), out.data(),
                        n);
          }
        }
      });
  sink().flops += 2.0 * static_cast<double>(a.nnz()) * n;
  sink().bytes_streamed += static_cast<double>(a.bytes()) +
                           static_cast<double>(c.bytes());
  sink().bytes_random += static_cast<double>(a.nnz()) * n * sizeof(real_t);
}

void CpuBackend::spmm_at_b(const CsrMatrix& a, const DenseMatrix& b,
                           DenseMatrix& c) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(a.rows() == b.rows());
  PARSGD_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  c.fill(0);
  const std::size_t m = b.cols();
  // Scatter form: rows of A contribute to scattered rows of C; sequential
  // to avoid write races (parallel versions use per-thread buffers with
  // identical flop cost).
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto rv = a.row(r);
    const auto brow = b.row(r);
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      simd_->axpy(rv.val[k], brow.data(), c.row(rv.idx[k]).data(), m);
    }
  }
  sink().flops += 2.0 * static_cast<double>(a.nnz()) * m;
  sink().bytes_streamed += static_cast<double>(a.bytes()) +
                           static_cast<double>(b.bytes());
  sink().bytes_random += static_cast<double>(a.nnz()) * m * sizeof(real_t);
}

void CpuBackend::axpy(real_t alpha, std::span<const real_t> x,
                      std::span<real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(x.size() == y.size());
  simd_->axpy(alpha, x.data(), y.data(), x.size());
  sink().flops += 2.0 * static_cast<double>(x.size());
  sink().bytes_streamed += 3.0 * static_cast<double>(x.size()) *
                           sizeof(real_t);
}

void CpuBackend::scale(std::span<real_t> x, real_t alpha) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  simd_->scale(x.data(), alpha, x.size());
  sink().flops += static_cast<double>(x.size());
  sink().bytes_streamed += 2.0 * static_cast<double>(x.size()) *
                           sizeof(real_t);
}

double CpuBackend::dot(std::span<const real_t> x,
                       std::span<const real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(x.size() == y.size());
  const double acc = reduce_->dot(x.data(), y.data(), x.size());
  sink().flops += 2.0 * static_cast<double>(x.size());
  sink().bytes_streamed += 2.0 * static_cast<double>(x.size()) *
                           sizeof(real_t);
  return acc;
}

void CpuBackend::ew_sigmoid(std::span<const real_t> x,
                            std::span<real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = static_cast<real_t>(sigmoid(x[i]));
  sink().flops += kTranscendentalFlops * static_cast<double>(x.size());
  sink().bytes_streamed += 2.0 * static_cast<double>(x.size()) *
                           sizeof(real_t);
}

void CpuBackend::ew_sigmoid_grad(std::span<const real_t> upstream,
                                 std::span<const real_t> s,
                                 std::span<real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(upstream.size() == s.size() && s.size() == y.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    y[i] = upstream[i] * s[i] * (real_t(1) - s[i]);
  sink().flops += 3.0 * static_cast<double>(s.size());
  sink().bytes_streamed += 3.0 * static_cast<double>(s.size()) *
                           sizeof(real_t);
}

void CpuBackend::ew_relu(std::span<const real_t> x,
                         std::span<real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] > 0 ? x[i] : real_t(0);
  }
  sink().flops += static_cast<double>(x.size());
  sink().bytes_streamed += 2.0 * static_cast<double>(x.size()) *
                           sizeof(real_t);
}

void CpuBackend::ew_relu_grad(std::span<const real_t> upstream,
                              std::span<const real_t> a,
                              std::span<real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(upstream.size() == a.size() && a.size() == y.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    y[i] = a[i] > 0 ? upstream[i] : real_t(0);
  }
  sink().flops += static_cast<double>(a.size());
  sink().bytes_streamed += 3.0 * static_cast<double>(a.size()) *
                           sizeof(real_t);
}

void CpuBackend::ew_tanh(std::span<const real_t> x, std::span<real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = static_cast<real_t>(std::tanh(x[i]));
  }
  sink().flops += kTranscendentalFlops * static_cast<double>(x.size());
  sink().bytes_streamed += 2.0 * static_cast<double>(x.size()) *
                           sizeof(real_t);
}

void CpuBackend::ew_tanh_grad(std::span<const real_t> upstream,
                              std::span<const real_t> a,
                              std::span<real_t> y) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(upstream.size() == a.size() && a.size() == y.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    y[i] = upstream[i] * (real_t(1) - a[i] * a[i]);
  }
  sink().flops += 3.0 * static_cast<double>(a.size());
  sink().bytes_streamed += 3.0 * static_cast<double>(a.size()) *
                           sizeof(real_t);
}

void CpuBackend::add_bias_rows(DenseMatrix& c,
                               std::span<const real_t> bias) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(bias.size() == c.cols());
  for (std::size_t r = 0; r < c.rows(); ++r) {
    auto row = c.row(r);
    for (std::size_t j = 0; j < row.size(); ++j) row[j] += bias[j];
  }
  sink().flops += static_cast<double>(c.size());
  sink().bytes_streamed += 2.0 * static_cast<double>(c.bytes());
}

void CpuBackend::col_sum(const DenseMatrix& c, std::span<real_t> out) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(out.size() == c.cols());
  std::fill(out.begin(), out.end(), real_t(0));
  for (std::size_t r = 0; r < c.rows(); ++r) {
    const auto row = c.row(r);
    for (std::size_t j = 0; j < row.size(); ++j) out[j] += row[j];
  }
  sink().flops += static_cast<double>(c.size());
  sink().bytes_streamed += static_cast<double>(c.bytes());
}

double CpuBackend::lr_loss_coefficients(std::span<const real_t> z,
                                        std::span<const real_t> y,
                                        std::span<real_t> coef) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(z.size() == y.size() && y.size() == coef.size());
  double loss = 0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double yz = static_cast<double>(y[i]) * z[i];
    // Numerically-stable log(1+exp(-yz)).
    loss += yz > 0 ? std::log1p(std::exp(-yz))
                   : -yz + std::log1p(std::exp(yz));
    coef[i] = lr_coefficient(z[i], y[i]);
  }
  sink().flops += 2.0 * kTranscendentalFlops * static_cast<double>(z.size());
  sink().bytes_streamed += 3.0 * static_cast<double>(z.size()) *
                           sizeof(real_t);
  return loss;
}

double CpuBackend::svm_loss_coefficients(std::span<const real_t> z,
                                         std::span<const real_t> y,
                                         std::span<real_t> coef) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(z.size() == y.size() && y.size() == coef.size());
  double loss = 0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double yz = static_cast<double>(y[i]) * z[i];
    if (yz < 1.0) loss += 1.0 - yz;
    coef[i] = svm_coefficient(z[i], y[i]);
  }
  sink().flops += 4.0 * static_cast<double>(z.size());
  sink().bytes_streamed += 3.0 * static_cast<double>(z.size()) *
                           sizeof(real_t);
  return loss;
}

double CpuBackend::softmax_xent(const DenseMatrix& logits,
                                std::span<const real_t> y,
                                DenseMatrix& dlogits) {
  sink().kernel_launches += 1;  // primitive invocation (fork/join unit)
  PARSGD_CHECK(logits.cols() == 2 && y.size() == logits.rows());
  PARSGD_CHECK(dlogits.rows() == logits.rows() && dlogits.cols() == 2);
  double loss = 0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double a = logits.at(i, 0), b = logits.at(i, 1);
    const double mx = std::max(a, b);
    const double ea = std::exp(a - mx), eb = std::exp(b - mx);
    const double z = ea + eb;
    const double p1 = eb / z;  // P(class 1)
    const int cls = y[i] > 0 ? 1 : 0;
    loss -= std::log(cls == 1 ? p1 : 1.0 - p1);
    dlogits.at(i, 0) = static_cast<real_t>((1.0 - p1) - (cls == 0));
    dlogits.at(i, 1) = static_cast<real_t>(p1 - (cls == 1));
  }
  sink().flops += 3.0 * kTranscendentalFlops *
                  static_cast<double>(logits.rows());
  sink().bytes_streamed += 2.0 * static_cast<double>(logits.bytes());
  return loss;
}

}  // namespace parsgd::linalg
