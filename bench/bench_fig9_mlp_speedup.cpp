// Reproduces Fig. 9: GPU-over-parallel-CPU hardware-efficiency speedup for
// the MLP task — our synchronous and asynchronous implementations vs the
// TensorFlow-style baseline. The validation claim: our GPU speedup always
// exceeds TensorFlow's (whose CPU path parallelizes GEMM fully, so its
// CPU is relatively faster and its ratio lower).
//
//   ./bench_fig9_mlp_speedup [--scale=100] [--quick]
#include <iostream>

#include "bench_common.hpp"
#include "paper_reference.hpp"

using namespace parsgd;
using namespace parsgd::benchutil;

namespace {

int run(const Cli& cli) {
  StudyOptions opts = study_options_from_cli(cli);
  opts.pool = &bench_pool();
  Study study(opts);
  print_banner("Fig. 9: GPU speedup over parallel CPU, MLP", opts);

  TableWriter table({"dataset", "ours sync | paper", "ours async | paper",
                     "TensorFlow sync"});
  report::RunReport rep = make_report("fig9_mlp_speedup", opts);
  const Timer host_timer;
  for (const auto& ds : all_datasets()) {
    const ConfigResult sg =
        study.config_result(Task::kMlp, ds, Update::kSync, Arch::kGpu);
    const ConfigResult sp =
        study.config_result(Task::kMlp, ds, Update::kSync, Arch::kCpuPar);
    const ConfigResult ag =
        study.config_result(Task::kMlp, ds, Update::kAsync, Arch::kGpu);
    const ConfigResult ap =
        study.config_result(Task::kMlp, ds, Update::kAsync, Arch::kCpuPar);
    const double tf_gpu =
        study.baseline_seconds(tensorflow_profile(), Task::kMlp, ds,
                               Arch::kGpu);
    const double tf_par =
        study.baseline_seconds(tensorflow_profile(), Task::kMlp, ds,
                               Arch::kCpuPar);
    const auto* sref = paperref::find_sync("MLP", ds);
    const auto* aref = paperref::find_async("MLP", ds);

    table.add_row({
        ds,
        vs_paper(sp.sec_per_epoch / sg.sec_per_epoch, sref->speedup_par_gpu),
        vs_paper(ap.sec_per_epoch / ag.sec_per_epoch,
                 1.0 / aref->ratio_gpu_par),
        fmt_sig3(tf_par / tf_gpu),
    });

    add_dataset(rep, study.dataset(Task::kMlp, ds));
    report::Entry e;
    e.label = "MLP/" + ds + "/gpu-speedup";
    e.task = "MLP";
    e.dataset = ds;
    e.extras = {
        {"sync_speedup", sp.sec_per_epoch / sg.sec_per_epoch},
        {"async_speedup", ap.sec_per_epoch / ag.sec_per_epoch},
        {"tensorflow_speedup", tf_par / tf_gpu},
    };
    rep.add_entry(std::move(e));
  }
  table.print(std::cout);
  emit_report(cli, opts, rep, host_timer.seconds());
  std::cout << "\npaper shape: our sync GPU speedup (>=4x) exceeds "
               "TensorFlow's; async 'speedup' is far below 1 (parallel-CPU "
               "Hogbatch beats serialized GPU mini-batching by 6x+).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, study_flags(), run);
}
