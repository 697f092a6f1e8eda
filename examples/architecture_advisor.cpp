// Architecture advisor — the paper's practical question as a tool: for a
// given task and dataset, should you train with synchronous SGD on the GPU
// or asynchronous SGD on the multi-core CPU?
//
// Runs both optimal configurations (sync/GPU and async/CPU, per the
// paper's findings) with a small step-size search each, and reports which
// converges to 1% faster in modeled wall time.
//
//   ./architecture_advisor [--task=LR|SVM|MLP] [--dataset=rcv1]
#include <cstdio>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "core/study.hpp"

using namespace parsgd;

namespace {

Task parse_task(const std::string& s) {
  if (s == "LR" || s == "lr") return Task::kLr;
  if (s == "SVM" || s == "svm") return Task::kSvm;
  if (s == "MLP" || s == "mlp") return Task::kMlp;
  std::fprintf(stderr, "unknown task %s (use LR, SVM, MLP)\n", s.c_str());
  std::exit(1);
}

void describe(const char* label, const ConfigResult& r) {
  const ConvergencePoint& p = r.ttc[3];  // 1%
  std::printf("%-22s alpha=%-8g %s/epoch, ", label, r.alpha,
              format_seconds(r.sec_per_epoch).c_str());
  if (p.reached) {
    std::printf("%zu epochs -> %s to 1%%\n", p.epochs,
                format_seconds(p.seconds).c_str());
  } else {
    std::printf("did not reach 1%% (best loss %.4f)\n",
                r.run->best_loss());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.exit_on_unknown_flag({"task", "dataset", "scale"});
  const Task task = parse_task(cli.get("task", "LR"));
  const std::string dataset = cli.get("dataset", "rcv1");

  StudyOptions opts;
  opts.scale = cli.get_double("scale", 100.0);
  opts.probe_epochs = 10;
  opts.full_epochs_linear = 150;
  opts.full_epochs_mlp = 60;
  Study study(opts);

  std::printf("advising %s on %s …\n\n", to_string(task), dataset.c_str());
  const ConfigResult sync_gpu =
      study.config_result(task, dataset, Update::kSync, Arch::kGpu);
  const ConfigResult async_par =
      study.config_result(task, dataset, Update::kAsync, Arch::kCpuPar);
  const ConfigResult async_seq =
      study.config_result(task, dataset, Update::kAsync, Arch::kCpuSeq);

  describe("sync / GPU", sync_gpu);
  describe("async / CPU (56 thr)", async_par);
  describe("async / CPU (1 thr)", async_seq);

  const ConfigResult& async_best =
      async_par.ttc[3].seconds <= async_seq.ttc[3].seconds ? async_par
                                                           : async_seq;
  std::printf("\n");
  if (sync_gpu.ttc[3].seconds < async_best.ttc[3].seconds) {
    std::printf("=> use SYNCHRONOUS SGD on the GPU (%.2fx faster to 1%%)\n",
                async_best.ttc[3].seconds / sync_gpu.ttc[3].seconds);
  } else if (async_best.ttc[3].seconds < sync_gpu.ttc[3].seconds) {
    std::printf("=> use ASYNCHRONOUS SGD on the CPU (%.2fx faster to 1%%)\n",
                sync_gpu.ttc[3].seconds / async_best.ttc[3].seconds);
  } else {
    std::printf("=> neither configuration reached 1%%; increase epochs\n");
  }
  std::printf("   (the paper: the winner is task- and dataset-dependent —\n"
              "    CPU should not be easily discarded)\n");
  return 0;
}
