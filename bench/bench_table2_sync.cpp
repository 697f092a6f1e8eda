// Reproduces Table II: synchronous SGD performance to 1% convergence
// error — time to convergence, time per iteration, epochs, and the two
// headline speedups (cpu-seq/cpu-par and cpu-par/gpu) for LR, SVM and MLP
// on all five datasets, side by side with the paper's published values.
// Emits BENCH_table2_sync.json (see bench_common.hpp for the report flags).
//
//   ./bench_table2_sync [--scale=100] [--quick] [--tasks=LR,SVM,MLP]
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
  print_banner("Table II: synchronous SGD (to 1% of optimal loss)", opts);

  TableWriter table({"task", "dataset", "ttc gpu (s)", "ttc cpu-par (s)",
                     "tpi gpu (ms)", "tpi cpu-seq (ms)", "tpi cpu-par (ms)",
                     "epochs", "seq/par", "par/gpu"});
  report::RunReport rep = make_report("table2_sync", opts);

  const double host_secs = timed_table(table, [&] {
    for_each_task(cli, [&](Task task) {
      for (const auto& ds : all_datasets()) {
        const ConfigResult gpu =
            study.config_result(task, ds, Update::kSync, Arch::kGpu);
        const ConfigResult seq =
            study.config_result(task, ds, Update::kSync, Arch::kCpuSeq);
        const ConfigResult par =
            study.config_result(task, ds, Update::kSync, Arch::kCpuPar);
        const auto* ref = paperref::find_sync(to_string(task), ds);

        table.add_row({
            to_string(task), ds,
            vs_paper(gpu.ttc[3].seconds, ref->ttc_gpu),
            vs_paper(par.ttc[3].seconds, ref->ttc_par),
            vs_paper(gpu.sec_per_epoch * 1e3, ref->tpi_gpu),
            vs_paper(seq.sec_per_epoch * 1e3, ref->tpi_seq),
            vs_paper(par.sec_per_epoch * 1e3, ref->tpi_par),
            epochs_str(gpu.ttc[3]) + " | " + fmt_sig3(ref->epochs),
            vs_paper(seq.sec_per_epoch / par.sec_per_epoch,
                     ref->speedup_seq_par),
            vs_paper(par.sec_per_epoch / gpu.sec_per_epoch,
                     ref->speedup_par_gpu),
        });

        add_dataset(rep, study.dataset(task, ds));
        const std::string key = std::string(to_string(task)) + "/" + ds;
        rep.add_entry(entry_from(key + "/sync/gpu", task, ds, Update::kSync,
                                 Arch::kGpu, gpu));
        rep.add_entry(entry_from(key + "/sync/cpu-seq", task, ds,
                                 Update::kSync, Arch::kCpuSeq, seq));
        rep.add_entry(entry_from(key + "/sync/cpu-par", task, ds,
                                 Update::kSync, Arch::kCpuPar, par));
      }
      table.add_rule();
    });
  });
  emit_report(cli, opts, rep, host_secs);

  std::cout << "\nheadline checks (paper section IV-C):\n"
               "  * gpu column should always beat cpu-par (sync: GPU wins)\n"
               "  * seq/par should be super-linear (>56) on cache-resident\n"
               "    datasets (covtype, w8a, real-sim) and ~2x for MLP\n"
               "  * par/gpu should grow with sparsity for LR/SVM and be\n"
               "    largest for MLP\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, study_flags({"tasks"}), run);
}
