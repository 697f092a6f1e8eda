// The study harness — the paper's primary contribution as a library.
//
// A Study lazily materializes, for each (task, dataset) pair, the four
// *semantic* training runs of the exploratory cube:
//   sync          (trajectory shared by cpu-seq / cpu-par / gpu — the
//                  paper: synchronous statistical efficiency is
//                  architecture-independent),
//   async/cpu-seq (plain incremental or mini-batch SGD),
//   async/cpu-par (Hogwild / Hogbatch with 56 logical workers),
//   async/gpu     (warp-synchronous Hogwild / serialized Hogbatch),
// each with its own power-of-10 step-size search (§IV-A methodology),
// plus per-architecture hardware-efficiency instrumentation. The optimal
// loss of a (task, dataset) is the lowest loss any configuration reaches,
// and convergence points are reported against it at 10/5/2/1%.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "baselines/baseline.hpp"
#include "data/generator.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"
#include "sgd/stepsize.hpp"

namespace parsgd {

enum class Task { kLr, kSvm, kMlp };
const char* to_string(Task t);

struct StudyOptions {
  double scale = 50.0;          ///< dataset N downscaling
  std::uint64_t seed = 42;
  int cpu_threads = 56;         ///< the paper machine's thread count
  /// Execution pool injected into every engine the study builds (via
  /// EngineContext); nullptr = the process-global pool. Execution-only:
  /// trajectories are bit-identical for every pool.
  ThreadPool* pool = nullptr;
  /// Telemetry session injected into every engine the study builds (via
  /// EngineContext) so all configurations report into one registry /
  /// trace; null = telemetry off (DESIGN.md §12).
  std::shared_ptr<telemetry::TelemetrySession> telemetry;
  std::size_t probe_epochs = 25;
  std::size_t keep_candidates = 3;
  /// Full-run epoch caps. Synchronous (batch-GD) trajectories converge
  /// slowly (the paper reports up to 1629 epochs), so sync gets a deeper
  /// budget than async.
  std::size_t full_epochs_linear = 450;
  std::size_t full_epochs_linear_sync = 800;
  std::size_t full_epochs_mlp = 350;
  std::size_t full_epochs_mlp_sync = 350;
  /// MLP datasets are generated `mlp_extra_scale` x smaller than the
  /// LR/SVM ones — their epochs cost ~50x more host time and batch-GD
  /// statistical efficiency is N-independent.
  double mlp_extra_scale = 4.0;
  std::size_t hogbatch_paper_batch = 512;  ///< scaled by `scale`
  std::vector<double> step_grid = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                   1e-1, 1.0,  10.0, 100.0};
  /// Forwarded to TrainOptions::heartbeat_seconds for every run the study
  /// launches (0 = off; logging only, trajectories are unaffected).
  double heartbeat_seconds = 0;
  /// Forwarded to every spec the study builds (EngineSpec::deterministic,
  /// spec key `det=`). On (the default) pins the order-sensitive SIMD
  /// reductions to scalar order for bit-exact trajectories; benches run
  /// det=off to measure the fully vectorized kernels.
  bool deterministic = true;
};

/// Everything the benches report for one configuration.
struct ConfigResult {
  double alpha = 0;             ///< selected step size
  double sec_per_epoch = 0;     ///< hardware efficiency (modeled, paper-N)
  std::array<ConvergencePoint, 4> ttc;  ///< at 10/5/2/1% of the optimum
  bool diverged = false;
  std::shared_ptr<const RunResult> run;  ///< full trajectory
};

class Study {
 public:
  explicit Study(const StudyOptions& opts = {});
  ~Study();

  /// Dataset used for (task, name): the generated set for LR/SVM, the
  /// feature-grouped view for MLP.
  const Dataset& dataset(Task task, const std::string& name);

  /// The model trained for (task, dataset).
  const Model& model(Task task, const std::string& name);

  /// Result of one configuration of the cube.
  ConfigResult config_result(Task task, const std::string& name,
                             Update update, Arch arch);

  /// Lowest loss reached by any configuration for (task, dataset).
  double optimum(Task task, const std::string& name);

  /// Family-level optimum: the convergence reference for Tables II/III.
  /// The paper references a single shared optimum; at ~150x-scaled N the
  /// high-dimensional datasets are linearly separable, so incremental
  /// SGD's loss decreases without bound and a shared 1% threshold is
  /// structurally unreachable for batch methods. Each update family is
  /// therefore referenced to the best loss its own configurations reach
  /// (documented in EXPERIMENTS.md).
  double optimum(Task task, const std::string& name, Update update);

  /// Per-epoch seconds of a baseline framework's synchronous epoch.
  double baseline_seconds(const BaselineProfile& profile, Task task,
                          const std::string& name, Arch arch);

  const StudyOptions& options() const { return opts_; }

  /// Layout rule used throughout: dense primitives for fully-dense data
  /// and for the (densified) MLP inputs, sparse otherwise.
  static bool use_dense(Task task, const Dataset& ds);

 private:
  struct Group;
  Group& group(Task task, const std::string& name);
  /// The LR/SVM base set of `name` at opts_.scale, generated once.
  const Dataset& base_dataset(const std::string& name);

  StudyOptions opts_;
  std::map<std::string, std::unique_ptr<Dataset>> base_;  ///< by name
  std::map<std::string, std::unique_ptr<Group>> groups_;
};

}  // namespace parsgd
