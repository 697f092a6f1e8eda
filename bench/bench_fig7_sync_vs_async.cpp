// Reproduces Fig. 7: time-to-convergence comparison between synchronous
// GPU and asynchronous CPU — the optimal configuration of each update
// strategy — as loss-versus-time series for every task/dataset pair.
// Identical hyper-parameters and initialization per pair, as in the paper.
//
//   ./bench_fig7_sync_vs_async [--scale=100] [--quick]
//                              [--tasks=LR,SVM,MLP] [--points=12]
#include <iostream>

#include "bench_common.hpp"

using namespace parsgd;
using namespace parsgd::benchutil;

namespace {

// Prints a downsampled (cumulative seconds, loss) series.
void print_series(const char* label, const RunResult& run, int points) {
  std::printf("  %-22s", label);
  const std::size_t n = run.epochs();
  if (n == 0) {
    std::printf("(no epochs)\n");
    return;
  }
  double t = 0;
  std::vector<std::pair<double, double>> series;
  for (std::size_t e = 0; e < n; ++e) {
    t += run.epoch_seconds[e];
    series.emplace_back(t, run.losses[e]);
  }
  const std::size_t step =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(points));
  for (std::size_t e = 0; e < n; e += step) {
    std::printf(" (%s, %.3g)", fmt_sec(series[e].first).c_str(),
                series[e].second);
  }
  std::printf("\n");
}

int run(const Cli& cli) {
  StudyOptions opts = study_options_from_cli(cli);
  opts.pool = &bench_pool();
  const int points = static_cast<int>(cli.get_int("points", 12));
  Study study(opts);
  print_banner("Fig. 7: sync GPU vs async CPU, loss over modeled time",
               opts);
  report::RunReport rep = make_report("fig7_sync_vs_async", opts);
  const Timer host_timer;

  int sync_wins = 0, async_wins = 0;
  for_each_task(cli, [&](Task task) {
    for (const auto& ds : all_datasets()) {
      const ConfigResult sync_gpu =
          study.config_result(task, ds, Update::kSync, Arch::kGpu);
      const ConfigResult async_seq =
          study.config_result(task, ds, Update::kAsync, Arch::kCpuSeq);
      const ConfigResult async_par =
          study.config_result(task, ds, Update::kAsync, Arch::kCpuPar);
      // "Asynchronous CPU" = the better CPU configuration (paper: seq
      // wins on dense low-dim, par on sparse).
      const ConfigResult& async_cpu =
          async_par.ttc[3].seconds <= async_seq.ttc[3].seconds ? async_par
                                                               : async_seq;

      std::printf("%s / %s   (loss-vs-time; alpha sync=%g async=%g)\n",
                  to_string(task), ds.c_str(), sync_gpu.alpha,
                  async_cpu.alpha);
      print_series("sync gpu:", *sync_gpu.run, points);
      print_series("async cpu:", *async_cpu.run, points);

      const double ts = sync_gpu.ttc[3].seconds;
      const double ta = async_cpu.ttc[3].seconds;
      const char* winner = ts < ta ? "sync gpu" : "async cpu";
      (ts < ta ? sync_wins : async_wins) += 1;
      std::printf("  -> to 1%%: sync gpu %s vs async cpu %s — %s wins\n\n",
                  fmt_sec(ts).c_str(), fmt_sec(ta).c_str(), winner);

      add_dataset(rep, study.dataset(task, ds));
      const std::string key = std::string(to_string(task)) + "/" + ds;
      rep.add_entry(entry_from(key + "/sync/gpu", task, ds, Update::kSync,
                               Arch::kGpu, sync_gpu));
      const Arch best_arch =
          &async_cpu == &async_par ? Arch::kCpuPar : Arch::kCpuSeq;
      report::Entry e = entry_from(key + "/async/cpu-best", task, ds,
                                   Update::kAsync, best_arch, async_cpu);
      e.extras = {{"sync_wins", ts < ta ? 1.0 : 0.0}};
      rep.add_entry(std::move(e));
    }
  });
  std::printf("summary: sync gpu wins %d pairs, async cpu wins %d pairs.\n"
              "paper shape: no single winner — the choice mirrors BGD vs "
              "SGD and is task/dataset dependent.\n",
              sync_wins, async_wins);
  emit_report(cli, opts, rep, host_timer.seconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, study_flags({"tasks", "points"}), run);
}
