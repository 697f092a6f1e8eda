// Ablation benches for the two cost-model design choices DESIGN.md calls
// out:
//
//  1. Calibration on/off — how much of each Table II cell comes from the
//     mechanistic hardware model vs the empirical ViennaCL-overhead
//     constants (EXPERIMENTS.md "Calibration"). Ratios (speedups) should
//     survive switching calibration off; absolute times should not.
//  2. The ViennaCL GEMM parallel threshold — Fig. 6's mechanism, isolated:
//     the same MLP epoch with the threshold at 5000 vs 0.
//
//   ./bench_ablation_models [--scale=150]
#include <iostream>

#include "bench_common.hpp"
#include "data/mlp_view.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "sgd/spec.hpp"

using namespace parsgd;
using namespace parsgd::benchutil;

namespace {

Dataset fixture(const std::string& name, double scale, bool mlp_view) {
  Dataset ds =
      generate_dataset(name, GeneratorOptions{.seed = 42, .scale = scale});
  return mlp_view ? make_mlp_dataset(ds) : ds;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.exit_on_unknown_flag({"scale"});
  const double scale = cli.get_double("scale", 150.0);

  // ---- 1. Calibration ablation (LR sync, covtype) ----
  std::cout << "=== ablation 1: calibration on/off (LR sync) ===\n\n";
  {
    TableWriter t({"dataset", "calib", "tpi seq (ms)", "tpi par (ms)",
                   "tpi gpu (ms)", "seq/par", "par/gpu"});
    for (const std::string name : {"covtype", "rcv1"}) {
      const Dataset ds = fixture(name, scale, false);
      LogisticRegression lr(ds.d());
      const bool dense = ds.profile.dense && ds.x_dense.has_value();
      const Layout layout = dense ? Layout::kDense : Layout::kSparse;
      const EngineContext ctx = make_engine_context(ds, lr, layout);
      const auto w0 = lr.init_params(1);
      for (const bool calibrated : {true, false}) {
        auto secs = [&](Arch a) {
          EngineSpec spec;
          spec.update = Update::kSync;
          spec.arch = a;
          spec.layout = layout;
          if (!calibrated) spec.calibration = Calibration::kNone;
          return make_engine(spec, ctx)->epoch_seconds(w0);
        };
        const double seq = secs(Arch::kCpuSeq), par = secs(Arch::kCpuPar),
                     gpu = secs(Arch::kGpu);
        t.add_row({name, calibrated ? "on" : "off", fmt_msec(seq),
                   fmt_msec(par), fmt_msec(gpu), fmt_sig3(seq / par),
                   fmt_sig3(par / gpu)});
      }
      t.add_rule();
    }
    t.print(std::cout);
    std::cout << "(absolute times shift ~10x; who-wins and the speedup "
                 "ordering survive)\n\n";
  }

  // ---- 2. GEMM parallel threshold ----
  std::cout << "=== ablation 2: ViennaCL GEMM threshold (MLP sync) ===\n\n";
  {
    // Two nets on real-sim: the paper's 50-10-5-2 (dW results < 5000:
    // affected) and a wide 1000-500-200-2 (dW >= 5000: immune).
    const Dataset ds = fixture("real-sim", scale, true);
    TableWriter t({"architecture", "threshold", "tpi cpu-par (ms)",
                   "dW serial cost (ms)"});
    for (const std::vector<std::size_t>& arch :
         {std::vector<std::size_t>{50, 10, 5, 2},
          std::vector<std::size_t>{50, 200, 100, 2}}) {
      Dataset grouped;
      grouped.profile = ds.profile;
      grouped.x = ds.x;
      grouped.x_dense = ds.x_dense;
      grouped.y = ds.y;
      Mlp mlp(arch);
      const EngineContext ctx = make_engine_context(grouped, mlp,
                                                    Layout::kDense);
      const auto w0 = mlp.init_params(1);
      double with_threshold = 0, without = 0;
      for (const std::size_t threshold :
           {std::size_t{5000}, std::size_t{0}}) {
        EngineSpec spec;
        spec.update = Update::kSync;
        spec.arch = Arch::kCpuPar;
        spec.layout = Layout::kDense;
        spec.calibration = Calibration::kNone;
        spec.gemm_parallel_threshold = threshold;
        (threshold ? with_threshold : without) =
            make_engine(spec, ctx)->epoch_seconds(w0);
      }
      std::string name;
      for (const std::size_t l : arch) {
        if (!name.empty()) name += "-";
        name += std::to_string(l);
      }
      t.add_row({name, "5000 (ViennaCL)", fmt_msec(with_threshold),
                 fmt_msec(with_threshold - without)});
      t.add_row({name, "0 (always parallel)", fmt_msec(without), "0"});
      t.add_rule();
    }
    t.print(std::cout);
    std::cout << "(the 5000 threshold serializes the small net's dW GEMMs "
                 "— Fig. 6's mechanism — while wide layers are immune)\n";
  }
  return 0;
}
