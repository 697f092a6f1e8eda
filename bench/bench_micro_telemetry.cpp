// Asserts the telemetry subsystem's core cost claim (DESIGN.md §12):
// with telemetry disabled, the instrumented hot path costs the same as
// an uninstrumented one. The workload is the blocked-GEMM fast path
// dispatched over the thread pool — every chunk crosses the pool's
// telemetry branches — timed three ways:
//   detached  — no session attached (the normal no-telemetry run),
//   off       — a TelemetryMode::kOff session attached (all instrument
//               handles stay null; the hot path pays only branch tests),
//   metrics   — a live kMetrics session (reported, not asserted).
// Exit code is nonzero when min-of-N off-mode time exceeds detached by
// more than 1%.
//
//   ./bench_micro_telemetry [--n=384] [--iters=8] [--repeats=7]
#include <algorithm>
#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "linalg/cpu_backend.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/session.hpp"

using namespace parsgd;

namespace {

linalg::DenseMatrix random_dense(std::size_t r, std::size_t c, Rng& rng) {
  linalg::DenseMatrix m(r, c);
  for (auto& v : m.data()) v = static_cast<real_t>(rng.normal());
  return m;
}

struct Workload {
  linalg::DenseMatrix a, b, c;
  linalg::CpuBackend be;
  CostBreakdown cost;
  std::size_t iters;

  Workload(std::size_t n, std::size_t iters_, ThreadPool* pool, Rng& rng)
      : a(random_dense(n, n, rng)), b(random_dense(n, n, rng)), c(n, n),
        be(linalg::CpuBackendOptions{.threads = 8, .pool = pool}),
        iters(iters_) {
    be.set_sink(&cost);
  }

  double run() {
    Timer t;
    for (std::size_t i = 0; i < iters; ++i) be.gemm(a, b, c, false, false);
    return t.seconds();
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.exit_on_unknown_flag({"n", "iters", "repeats"});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 384));
  const auto iters = static_cast<std::size_t>(cli.get_int("iters", 8));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats", 7));

  ThreadPool pool(4);
  Rng rng(11);
  Workload work(n, iters, &pool, rng);
  telemetry::TelemetrySession off(telemetry::TelemetryMode::kOff);
  telemetry::TelemetrySession metrics(telemetry::TelemetryMode::kMetrics);

  // Interleaved min-of-N: each repeat times all three configurations
  // back to back, so thermal / scheduler drift hits them alike and the
  // min discards transient noise.
  double t_detached = 1e300, t_off = 1e300, t_metrics = 1e300;
  work.run();  // warm-up: page in the matrices, spin up the workers
  for (std::size_t r = 0; r < repeats; ++r) {
    t_detached = std::min(t_detached, work.run());
    {
      PoolTelemetryGuard guard(pool, &off);
      t_off = std::min(t_off, work.run());
    }
    {
      PoolTelemetryGuard guard(pool, &metrics);
      t_metrics = std::min(t_metrics, work.run());
    }
  }

  const double off_overhead = (t_off - t_detached) / t_detached;
  const double metrics_overhead = (t_metrics - t_detached) / t_detached;
  std::printf("blocked GEMM %zux%zu, %zu iters/sample, min of %zu:\n",
              n, n, iters, repeats);
  std::printf("  detached        : %8.3f ms\n", t_detached * 1e3);
  std::printf("  telemetry=off   : %8.3f ms  (%+.2f%%)\n", t_off * 1e3,
              off_overhead * 100);
  std::printf("  telemetry=metrics: %7.3f ms  (%+.2f%%, informational)\n",
              t_metrics * 1e3, metrics_overhead * 100);

  if (off_overhead >= 0.01) {
    std::fprintf(stderr,
                 "FAIL: disabled-mode overhead %.2f%% >= 1%% budget\n",
                 off_overhead * 100);
    return 1;
  }
  std::printf("PASS: disabled-mode overhead %.2f%% < 1%%\n",
              off_overhead * 100);
  return 0;
}
