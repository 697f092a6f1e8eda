// Shared plumbing for the table/figure reproduction binaries: CLI-driven
// StudyOptions, small formatting helpers, and the run-report hookup that
// drops a BENCH_<name>.json next to every table (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/study.hpp"
#include "core/table.hpp"
#include "parallel/thread_pool.hpp"
#include "report/report.hpp"

namespace parsgd::benchutil {

inline const std::vector<std::string>& all_datasets() {
  static const std::vector<std::string> names = {"covtype", "w8a", "real-sim",
                                                 "rcv1", "news"};
  return names;
}

/// The flags study_options_from_cli reads, plus `extra`.
inline std::vector<std::string> study_flags(
    std::vector<std::string> extra = {}) {
  extra.insert(extra.end(),
               {"scale", "quick", "verbose", "heartbeat", "telemetry", "det"});
  return extra;
}

/// The main of a report-emitting bench that reads `flags` besides
/// emit_report's --no-report and --report-dir: returns run(cli), or 2
/// after printing the error and the usage line. Before any work, --help
/// prints the usage line and returns 0, and an unknown flag or a
/// positional argument is an error naming it: a mistyped flag must not
/// run the default study and write its report. A flag value the Cli
/// getters reject throws CheckError out of run (`--scale=abc`, or
/// `--quick stray`, where the word after a bare flag binds as its value);
/// it is reported the same way rather than aborting the process.
inline int bench_main(int argc, char** argv, std::vector<std::string> flags,
                      int (*run)(const Cli&)) {
  const Cli cli(argc, argv);
  flags.insert(flags.end(), {"no-report", "report-dir"});
  std::string usage = "usage: " + cli.program();
  for (const std::string& f : flags) usage += " [--" + f + "]";
  if (cli.has("help")) {
    std::printf("%s\n", usage.c_str());
    return 0;
  }
  std::string bad;
  if (const std::string flag = cli.unknown_flag(flags); !flag.empty()) {
    bad = "unknown flag --" + flag;
  } else if (!cli.positional().empty()) {
    bad = "unexpected argument '" + cli.positional().front() + "'";
  } else {
    try {
      return run(cli);
    } catch (const CheckError& e) {
      bad = e.what();
    }
  }
  std::fprintf(stderr, "error: %s\n%s\n", bad.c_str(), usage.c_str());
  return 2;
}

/// Builds StudyOptions from CLI flags:
///   --scale=N            dataset downscale factor (default 200)
///   --quick              tiny smoke configuration
///   --verbose            progress logging
///   --heartbeat=SECS     live epoch/loss/ETA log lines (0 = off)
///   --telemetry=MODE     off|metrics|trace; non-off sessions land in the
///                        emitted report's metrics section
///   --det[=BOOL]         pin the order-sensitive SIMD reductions to the
///                        scalar reference order (default on, as in
///                        EngineSpec and Study, so a bare run does the
///                        arithmetic of its stored baseline; --det=false
///                        runs the fully vectorized reductions, whose
///                        trajectories differ only in rounding)
inline StudyOptions study_options_from_cli(const Cli& cli) {
  StudyOptions opts;
  opts.scale = cli.get_double("scale", 200.0);
  opts.deterministic = cli.get_bool("det", true);
  if (cli.get_bool("quick", false)) {
    opts.scale = std::max(opts.scale, 400.0);
    opts.probe_epochs = 5;
    opts.full_epochs_linear = 40;
    opts.full_epochs_mlp = 15;
    opts.keep_candidates = 2;
  }
  if (cli.get_bool("verbose", false)) {
    set_log_level(LogLevel::kInfo);
  }
  opts.heartbeat_seconds = cli.get_double("heartbeat", 0.0);
  if (opts.heartbeat_seconds > 0 &&
      static_cast<int>(log_level()) > static_cast<int>(LogLevel::kInfo)) {
    set_log_level(LogLevel::kInfo);  // heartbeat lines are INFO
  }
  const std::string mode = cli.get("telemetry", "off");
  const auto parsed = telemetry::parse_telemetry_mode(mode);
  PARSGD_CHECK(parsed.has_value(), "bad --telemetry=" << mode);
  if (*parsed != telemetry::TelemetryMode::kOff) {
    opts.telemetry = std::make_shared<telemetry::TelemetrySession>(*parsed);
  }
  return opts;
}

/// The execution pool of the Study benches: nproc - 1 workers, so with
/// the calling thread each core runs one participant, as in perfbench.
/// (ThreadPool::global() has nproc workers: one participant more than
/// the host has cores.) Execution-only: every trajectory and stored
/// baseline is the same for every pool size.
inline ThreadPool& bench_pool() {
  static ThreadPool pool(
      std::max<std::size_t>(std::thread::hardware_concurrency(), 2) - 1);
  return pool;
}

/// "12.3 (paper 15.0)" cells.
inline std::string vs_paper(double ours, double paper) {
  return fmt_sec(ours) + " | " + fmt_sec(paper);
}

inline std::string epochs_str(const ConvergencePoint& p) {
  return p.reached ? std::to_string(p.epochs) : "inf";
}

inline void print_banner(const char* title, const StudyOptions& opts) {
  std::printf("=== %s ===\n", title);
  std::printf("datasets scaled 1/%.0f in N; times are modeled for the "
              "paper's hardware (Fig. 5) at paper-scale N.\n"
              "cells show: ours | paper. 'inf' = no convergence "
              "(paper's \"∞\").\n\n",
              opts.scale);
}

/// Invokes fn(task) for every task selected by --tasks=LR,SVM,MLP.
template <typename Fn>
inline void for_each_task(const Cli& cli, Fn&& fn) {
  const std::string tasks = cli.get("tasks", "LR,SVM,MLP");
  for (const Task task : {Task::kLr, Task::kSvm, Task::kMlp}) {
    if (tasks.find(to_string(task)) == std::string::npos) continue;
    fn(task);
  }
}

/// Runs the measurement body under a host-wall timer, then prints the
/// table and the footer every table bench shares. Returns the host
/// seconds (for RunReport::host_seconds).
template <typename Fn>
inline double timed_table(TableWriter& table, Fn&& body) {
  double host_secs = 0;
  {
    ScopedTimer host_timer(&host_secs);
    body();
  }
  table.print(std::cout);
  std::printf("host wall time: %.2fs (modeled times above are paper-scale)\n",
              host_secs);
  return host_secs;
}

/// Fresh report pre-filled with the study's provenance fields.
inline report::RunReport make_report(const std::string& name,
                                     const StudyOptions& opts) {
  report::RunReport rep(name);
  rep.seed = opts.seed;
  rep.threads = opts.cpu_threads;
  rep.scale = opts.scale;
  return rep;
}

/// Records the dataset manifest once per distinct dataset name.
inline void add_dataset(report::RunReport& rep, const Dataset& ds) {
  for (const report::DatasetInfo& d : rep.datasets) {
    if (d.name == ds.profile.name) return;
  }
  rep.datasets.push_back(report::DatasetInfo::from(ds));
}

/// Report entry from one study configuration. ttc[0] is the 10% level,
/// ttc[3] the 1% level (kConvergenceLevels).
inline report::Entry entry_from(std::string label, Task task,
                                const std::string& dataset, Update update,
                                Arch arch, const ConfigResult& r) {
  report::Entry e;
  e.label = std::move(label);
  e.task = to_string(task);
  e.dataset = dataset;
  e.spec = std::string(to_string(update)) + "/" + to_string(arch);
  e.alpha = r.alpha;
  e.diverged = r.diverged;
  e.axes.sec_per_epoch = r.sec_per_epoch;
  if (r.run) {
    e.axes.modeled_total_seconds = r.run->total_seconds();
    e.series_loss = r.run->losses;
    e.series_seconds = r.run->epoch_seconds;
  }
  if (r.ttc[0].reached) {
    e.axes.epochs_to_10pct = static_cast<double>(r.ttc[0].epochs);
    e.axes.ttc_10pct = r.ttc[0].seconds;
  }
  if (r.ttc[3].reached) {
    e.axes.epochs_to_1pct = static_cast<double>(r.ttc[3].epochs);
    e.axes.ttc_1pct = r.ttc[3].seconds;
  }
  return e;
}

/// Stamps host time + telemetry into `rep` and writes it as
/// BENCH_<name>.json (--report-dir overrides the directory, see
/// report::emit; --no-report skips the file). Returns the written path
/// or "".
inline std::string emit_report(const Cli& cli, const StudyOptions& opts,
                               report::RunReport& rep, double host_secs) {
  rep.host_seconds = host_secs;
  rep.add_metrics(opts.telemetry.get());
  if (cli.get_bool("no-report", false)) return "";
  const std::string path = report::emit(rep, cli.get("report-dir", ""));
  std::printf("report: %s\n", path.c_str());
  return path;
}

}  // namespace parsgd::benchutil
