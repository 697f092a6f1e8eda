// Reproduces Table III: asynchronous SGD performance to 1% convergence
// error — Hogwild (LR/SVM) and Hogbatch (MLP) on gpu / cpu-seq / cpu-par,
// with per-architecture statistical efficiency, side by side with the
// paper's published values. Emits BENCH_table3_async.json.
//
//   ./bench_table3_async [--scale=100] [--quick] [--tasks=LR,SVM,MLP]
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
  print_banner("Table III: asynchronous SGD (to 1% of optimal loss)", opts);

  TableWriter table({"task", "dataset", "ttc gpu (s)", "ttc cpu-seq (s)",
                     "ttc cpu-par (s)", "tpi gpu (ms)", "tpi cpu-seq (ms)",
                     "tpi cpu-par (ms)", "ep gpu", "ep seq", "ep par",
                     "seq/par", "gpu/par"});
  report::RunReport rep = make_report("table3_async", opts);

  const double host_secs = timed_table(table, [&] {
    for_each_task(cli, [&](Task task) {
      for (const auto& ds : all_datasets()) {
        const ConfigResult gpu =
            study.config_result(task, ds, Update::kAsync, Arch::kGpu);
        const ConfigResult seq =
            study.config_result(task, ds, Update::kAsync, Arch::kCpuSeq);
        const ConfigResult par =
            study.config_result(task, ds, Update::kAsync, Arch::kCpuPar);
        const auto* ref = paperref::find_async(to_string(task), ds);

        table.add_row({
            to_string(task), ds,
            vs_paper(gpu.ttc[3].seconds, ref->ttc_gpu),
            vs_paper(seq.ttc[3].seconds, ref->ttc_seq),
            vs_paper(par.ttc[3].seconds, ref->ttc_par),
            vs_paper(gpu.sec_per_epoch * 1e3, ref->tpi_gpu),
            vs_paper(seq.sec_per_epoch * 1e3, ref->tpi_seq),
            vs_paper(par.sec_per_epoch * 1e3, ref->tpi_par),
            epochs_str(gpu.ttc[3]) + " | " + fmt_sec(ref->ep_gpu),
            epochs_str(seq.ttc[3]) + " | " + fmt_sec(ref->ep_seq),
            epochs_str(par.ttc[3]) + " | " + fmt_sec(ref->ep_par),
            vs_paper(seq.sec_per_epoch / par.sec_per_epoch,
                     ref->speedup_seq_par),
            vs_paper(gpu.sec_per_epoch / par.sec_per_epoch,
                     ref->ratio_gpu_par),
        });

        add_dataset(rep, study.dataset(task, ds));
        const std::string key = std::string(to_string(task)) + "/" + ds;
        rep.add_entry(entry_from(key + "/async/gpu", task, ds,
                                 Update::kAsync, Arch::kGpu, gpu));
        rep.add_entry(entry_from(key + "/async/cpu-seq", task, ds,
                                 Update::kAsync, Arch::kCpuSeq, seq));
        rep.add_entry(entry_from(key + "/async/cpu-par", task, ds,
                                 Update::kAsync, Arch::kCpuPar, par));
      }
      table.add_rule();
    });
  });
  emit_report(cli, opts, rep, host_secs);

  std::cout << "\nheadline checks (paper section IV-C):\n"
               "  * CPU (best of seq/par) should beat gpu in ttc everywhere\n"
               "  * cpu-par should be slower per iteration than cpu-seq on\n"
               "    dense low-dim data (covtype: coherency conflicts) and\n"
               "    much faster on sparse data (news)\n"
               "  * MLP Hogbatch: cpu-par fastest per iteration by 6x+ over\n"
               "    gpu; gpu statistically close to cpu-seq (serialized)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, study_flags({"tasks"}), run);
}
