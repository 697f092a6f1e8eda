// Reproduces Fig. 6: synchronous-SGD speedup on real-sim for growing MLP
// architectures. The mechanism under test is the ViennaCL GEMM
// parallelization threshold: small weight-gradient GEMMs (<= 5000 result
// elements) run single-threaded, capping the 56-thread speedup near 2x for
// the paper's 50-10-5-2 nets; larger nets parallelize and approach 26x,
// while the GPU-over-parallel-CPU ratio stays roughly flat.
//
//   ./bench_fig6_mlp_speedup [--scale=100]
#include <iostream>

#include "bench_common.hpp"
#include "data/generator.hpp"
#include "matrix/transform.hpp"
#include "models/mlp.hpp"
#include "sgd/spec.hpp"

using namespace parsgd;
using namespace parsgd::benchutil;

namespace {

int run(const Cli& cli) {
  const double scale = cli.get_double("scale", 100.0);
  std::printf("=== Fig. 6: sync-SGD speedup on real-sim vs MLP size ===\n\n");

  report::RunReport rep("fig6_mlp_speedup");
  rep.scale = scale;
  const Timer host_timer;

  GeneratorOptions gen;
  gen.scale = scale;
  const Dataset base = generate_dataset("real-sim", gen);

  // The paper grows the net from the Table I shape to "a very large net".
  const std::vector<std::vector<std::size_t>> architectures = {
      {50, 10, 5, 2},
      {100, 50, 10, 2},
      {300, 100, 50, 2},
      {500, 200, 100, 2},
      {1000, 500, 200, 2},
      {2000, 1000, 500, 2},
  };

  TableWriter table({"architecture", "tpi cpu-seq (ms)", "tpi cpu-par (ms)",
                     "tpi gpu (ms)", "cpu-par/cpu-seq speedup",
                     "gpu/cpu-par speedup", "dW gemm parallel?"});

  for (const auto& arch : architectures) {
    // Group real-sim's 20,958 features to this architecture's input width.
    Dataset grouped;
    grouped.profile = base.profile;
    grouped.profile.mlp_input = arch[0];
    grouped.x = group_features_sparse(base.x, arch[0]);
    grouped.x_dense = grouped.x.to_dense();
    grouped.y = base.y;

    Mlp mlp(arch);
    const EngineContext ctx = make_engine_context(grouped, mlp,
                                                  Layout::kDense);
    const auto w0 = mlp.init_params(3);

    auto engine_for = [&](Arch a) {
      EngineSpec spec;
      spec.update = Update::kSync;
      spec.arch = a;
      spec.layout = Layout::kDense;
      return make_engine(spec, ctx);
    };
    const double seq = engine_for(Arch::kCpuSeq)->epoch_seconds(w0);
    const double par = engine_for(Arch::kCpuPar)->epoch_seconds(w0);
    const auto gpu_engine = engine_for(Arch::kGpu);
    const double gpu = gpu_engine->epoch_seconds(w0);

    std::string name;
    for (const std::size_t l : arch) {
      if (!name.empty()) name += "-";
      name += std::to_string(l);
    }
    // The dW GEMM of the widest layer has arch[0]*arch[1] result elements.
    const bool dw_parallel = arch[0] * arch[1] >= 5000;
    table.add_row({name, fmt_msec(seq), fmt_msec(par), fmt_msec(gpu),
                   fmt_sig3(seq / par), fmt_sig3(par / gpu),
                   dw_parallel ? "yes" : "no"});

    add_dataset(rep, grouped);
    report::Entry e;
    e.label = name;
    e.task = "MLP";
    e.dataset = "real-sim";
    e.spec = "sync";
    e.extras = {
        {"tpi_cpu_seq", seq},
        {"tpi_cpu_par", par},
        {"tpi_gpu", gpu},
        {"speedup_seq_par", seq / par},
        {"speedup_par_gpu", par / gpu},
    };
    rep.add_entry(std::move(e));
    // Per-kernel cycle attribution of the largest net only (the last
    // row's breakdown is the interesting one — GEMM-bound).
    if (&arch == &architectures.back()) {
      if (const gpusim::Device* dev = gpu_engine->device()) {
        rep.add_kernels(*dev);
      }
    }
  }
  table.print(std::cout);
  rep.host_seconds = host_timer.seconds();
  if (!cli.get_bool("no-report", false)) {
    std::printf("report: %s\n",
                report::emit(rep, cli.get("report-dir", "")).c_str());
  }
  std::cout << "\npaper shape: speedup ~2x for the small net, rising to "
               "~26x for the largest; gpu/cpu-par roughly constant.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, {"scale"}, run);
}
