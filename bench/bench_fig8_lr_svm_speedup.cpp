// Reproduces Fig. 8: GPU-over-parallel-CPU hardware-efficiency speedup for
// LR and SVM — our synchronous implementation, our asynchronous
// implementation, and the BIDMach-style baseline. The validation claim:
// our synchronous speedups are similar or better than BIDMach's,
// especially on sparse data (BIDMach's GPU kernels are dense-tuned).
//
//   ./bench_fig8_lr_svm_speedup [--scale=100] [--quick]
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
  print_banner("Fig. 8: GPU speedup over parallel CPU, LR & SVM", opts);

  TableWriter table({"task", "dataset", "ours sync | paper",
                     "ours async | paper", "BIDMach sync"});
  report::RunReport rep = make_report("fig8_lr_svm_speedup", opts);
  const Timer host_timer;
  for (const Task task : {Task::kLr, Task::kSvm}) {
    for (const auto& ds : all_datasets()) {
      const ConfigResult sg =
          study.config_result(task, ds, Update::kSync, Arch::kGpu);
      const ConfigResult sp =
          study.config_result(task, ds, Update::kSync, Arch::kCpuPar);
      const ConfigResult ag =
          study.config_result(task, ds, Update::kAsync, Arch::kGpu);
      const ConfigResult ap =
          study.config_result(task, ds, Update::kAsync, Arch::kCpuPar);
      const double bm_gpu = study.baseline_seconds(bidmach_profile(), task,
                                                   ds, Arch::kGpu);
      const double bm_par = study.baseline_seconds(bidmach_profile(), task,
                                                   ds, Arch::kCpuPar);
      const auto* sref = paperref::find_sync(to_string(task), ds);
      const auto* aref = paperref::find_async(to_string(task), ds);

      table.add_row({
          to_string(task), ds,
          vs_paper(sp.sec_per_epoch / sg.sec_per_epoch,
                   sref->speedup_par_gpu),
          vs_paper(ap.sec_per_epoch / ag.sec_per_epoch,
                   1.0 / aref->ratio_gpu_par),
          fmt_sig3(bm_par / bm_gpu),
      });

      add_dataset(rep, study.dataset(task, ds));
      report::Entry e;
      e.label = std::string(to_string(task)) + "/" + ds + "/gpu-speedup";
      e.task = to_string(task);
      e.dataset = ds;
      e.extras = {
          {"sync_speedup", sp.sec_per_epoch / sg.sec_per_epoch},
          {"async_speedup", ap.sec_per_epoch / ag.sec_per_epoch},
          {"bidmach_speedup", bm_par / bm_gpu},
      };
      rep.add_entry(std::move(e));
    }
    table.add_rule();
  }
  table.print(std::cout);
  emit_report(cli, opts, rep, host_timer.seconds());
  std::cout << "\npaper shape: our sync speedup >= BIDMach's on sparse "
               "datasets; async GPU 'speedup' is below 1 on sparse data "
               "(parallel CPU is faster per iteration).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, study_flags(), run);
}
