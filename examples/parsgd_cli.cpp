// parsgd_cli — run any single configuration of the study cube from the
// command line and print its three performance measures. The low-level
// sibling of architecture_advisor: full control, no step-size search
// (you provide alpha, like a practitioner would).
//
//   ./parsgd_cli --task=LR --dataset=rcv1 --engine=async/cpu-par/sparse
//                --alpha=0.1 --epochs=60 [--threads=56] [--scale=200]
//
// --engine takes a full spec string (see DESIGN.md §10) and is required.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "data/generator.hpp"
#include "data/mlp_view.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "report/chrome_trace.hpp"
#include "report/report.hpp"
#include "sgd/checkpoint.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/session.hpp"

using namespace parsgd;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: parsgd_cli --task=LR|SVM|MLP --dataset=<name>\n"
               "       --engine=<update/arch/layout[:key=value,...]>\n"
               "       [--alpha=0.1] [--epochs=60] [--threads=56]\n"
               "       [--scale=200] [--seed=42]\n"
               "       [--watchdog]\n"
               "       [--checkpoint=<path>] [--checkpoint-every=N|Ts]"
               " [--resume=<path>]\n"
               "       [--telemetry=off|metrics|trace]"
               " [--trace-out=trace.json] [--verbose]\n"
               "       [--report-out=<path>] [--heartbeat=<secs>]"
               " [--attribute]\n"
               "       [--version] [--build-info]\n"
               "engine spec examples: async/cpu-par/sparse,\n"
               "  sync/gpu/dense:calib=mlp,batch=64\n",
               msg);
  std::exit(2);
}

/// Writes a telemetry artifact via `fn`; dies loudly on an unwritable
/// path rather than silently dropping the run's data.
template <class Fn>
void write_file(const std::string& path, const char* what, Fn&& fn) {
  std::ofstream os(path);
  if (!os) usage(("cannot open output file for " + std::string(what) +
                  ": " + path).c_str());
  fn(os);
  std::printf("  wrote %s to %s\n", what, path.c_str());
}

/// --version / --build-info: print the baked-in build provenance (the
/// same manifest every RunReport carries) and exit.
void print_build_info(bool verbose) {
  const report::BuildInfo& b = report::build_info();
  std::printf("parsgd_cli %s (%s, report schema v%d)\n", b.git_sha.c_str(),
              b.git_state.c_str(), report::kSchemaVersion);
  if (!verbose) return;
  std::printf("  compiler   : %s\n", b.compiler.c_str());
  std::printf("  build type : %s\n", b.build_type.c_str());
  std::printf("  C++ std    : %s\n", b.cxx_standard.c_str());
  std::printf("  flags      : %s\n", b.flags.c_str());
  std::printf("  host ISA   : %s\n", b.host_isa.c_str());
  std::printf("  kernels    : %s\n", b.kernel_dispatch.c_str());
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("version") || cli.has("build-info")) {
    print_build_info(cli.has("build-info"));
    return 0;
  }
  // A mistyped or removed flag fails loudly rather than the run silently
  // going ahead without what it asked for.
  if (const std::string bad = cli.unknown_flag(
          {"task", "dataset", "engine", "alpha", "epochs", "threads",
           "scale", "seed", "watchdog", "checkpoint", "checkpoint-every",
           "resume", "telemetry", "trace-out", "verbose", "report-out",
           "heartbeat", "attribute"});
      !bad.empty()) {
    usage(("unknown flag --" + bad).c_str());
  }
  const std::string task = cli.get("task", "LR");
  const std::string dataset = cli.get("dataset", "covtype");
  const std::string engine_arg = cli.get("engine", "");
  const double alpha = cli.get_double("alpha", 0.1);
  const std::int64_t epochs_arg = cli.get_int("epochs", 60);
  const std::int64_t threads_arg = cli.get_int("threads", 56);
  if (epochs_arg <= 0) usage("--epochs needs a positive count");
  if (threads_arg <= 0) usage("--threads needs a positive count");
  const auto epochs = static_cast<std::size_t>(epochs_arg);
  const int threads = static_cast<int>(threads_arg);
  const bool verbose = cli.get_bool("verbose", false);
  const std::string telemetry_arg = cli.get("telemetry", "");

  if (task != "LR" && task != "SVM" && task != "MLP") {
    usage("unknown --task");
  }
  if (engine_arg.empty()) usage("--engine=<spec> is required");
  std::string spec_error;
  const std::optional<EngineSpec> parsed =
      try_parse_spec(engine_arg, &spec_error);
  if (!parsed) usage(("malformed --engine spec: " + spec_error).c_str());
  EngineSpec spec = *parsed;

  // Data + model.
  GeneratorOptions gen;
  gen.scale = cli.get_double("scale", 200.0);
  gen.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  Dataset base = generate_dataset(dataset, gen);
  Dataset ds = task == "MLP" ? make_mlp_dataset(base) : std::move(base);

  std::unique_ptr<Model> model;
  if (task == "LR") model = std::make_unique<LogisticRegression>(ds.d());
  else if (task == "SVM") model = std::make_unique<LinearSvm>(ds.d());
  else model = std::make_unique<Mlp>(ds.profile.mlp_architecture());

  if (spec.layout == Layout::kDense && !ds.x_dense) {
    usage("dense layout requested but the dataset has no dense "
          "materialization");
  }
  // --telemetry overrides a telemetry= key in the spec string.
  if (!telemetry_arg.empty()) {
    const std::optional<telemetry::TelemetryMode> mode =
        telemetry::parse_telemetry_mode(telemetry_arg);
    if (!mode) {
      usage(("unknown --telemetry mode '" + telemetry_arg +
             "' (expected off, metrics or trace)").c_str());
    }
    spec.telemetry = *mode;
  }
  // The metrics snapshot reaches disk only through the run report.
  const std::string report_out = cli.get("report-out", "");
  if (spec.telemetry == telemetry::TelemetryMode::kMetrics &&
      report_out.empty()) {
    usage("telemetry=metrics needs --report-out=<path> (the metrics "
          "snapshot is written only there)");
  }
  if (verbose) {
    // Grammar round-trip: reparse what we print — a mismatch here means
    // the spec grammar lost information.
    std::printf("spec round-trip: %s\n",
                format_spec(parse_spec(format_spec(spec))).c_str());
  }

  EngineContext ctx = make_engine_context(ds, *model, spec.layout);
  ctx.cpu_threads = threads;
  ctx.seed = gen.seed;
  std::shared_ptr<telemetry::TelemetrySession> session;
  if (spec.telemetry != telemetry::TelemetryMode::kOff) {
    session = std::make_shared<telemetry::TelemetrySession>(spec.telemetry);
    ctx.telemetry = session;
  }
  const auto w0 = model->init_params(gen.seed ^ 0xabcdef);
  const std::unique_ptr<Engine> engine = make_engine(spec, ctx);

  std::printf("%s / %s / %s  alpha=%g epochs=%zu (scale 1/%.0f)\n",
              task.c_str(), dataset.c_str(), format_spec(spec).c_str(),
              alpha, epochs, gen.scale);

  TrainOptions t;
  t.max_epochs = epochs;
  t.prefer_dense = spec.layout == Layout::kDense;
  t.heartbeat_seconds = cli.get_double("heartbeat", 0.0);
  if (t.heartbeat_seconds > 0 &&
      static_cast<int>(log_level()) > static_cast<int>(LogLevel::kInfo)) {
    set_log_level(LogLevel::kInfo);  // heartbeats log at INFO
  }
  // --watchdog is an alias for a resilience=watchdog key in the spec
  // string (DESIGN.md §11).
  if (cli.get_bool("watchdog", false)) spec.watchdog = true;
  t.watchdog = spec.watchdog;
  t.attribute = cli.get_bool("attribute", false);
  t.checkpoint_path = cli.get("checkpoint", "");
  // --checkpoint-every=N (epochs) or =Ts (host seconds, e.g. "2.5s");
  // the number must be the whole value, like every other numeric flag.
  if (const std::string ck_every = cli.get("checkpoint-every", "");
      !ck_every.empty()) {
    if (ck_every.back() == 's') {
      if (!parse_double_value(ck_every.substr(0, ck_every.size() - 1),
                              &t.checkpoint_every_seconds) ||
          !(t.checkpoint_every_seconds > 0)) {
        usage("--checkpoint-every=Ts needs a positive duration");
      }
    } else {
      std::int64_t n = 0;
      if (!parse_int_value(ck_every, &n) || n <= 0) {
        usage("--checkpoint-every=N needs a positive epoch count");
      }
      t.checkpoint_every = static_cast<std::size_t>(n);
    }
  }
  std::optional<TrainCheckpoint> ck;
  const std::string resume_path = cli.get("resume", "");
  if (!resume_path.empty()) {
    ck = load_checkpoint(resume_path);
    t.resume = &*ck;
    const RunResult& partial = ck->partial;
    std::printf("  resuming from %s at epoch %zu (last loss %.4g, %zu "
                "recoveries)\n",
                resume_path.c_str(), ck->next_epoch,
                partial.losses.empty() ? partial.initial_loss
                                       : partial.losses.back(),
                partial.recoveries.size());
  }
  const Timer host_timer;
  const RunResult run = run_training(*engine, *model, ctx.data, w0,
                                     static_cast<real_t>(alpha), t);
  const double host_secs = host_timer.seconds();
  for (const RecoveryEvent& ev : run.recoveries) {
    const char* why = "loss spike";
    switch (ev.reason) {
      case RecoveryReason::kNonFinite: why = "non-finite loss"; break;
      case RecoveryReason::kLossSpike: why = "loss spike"; break;
    }
    std::printf("  recovery: rolled back epoch %zu (%s, loss %.4g), "
                "alpha scale now %g\n",
                ev.epoch + 1, why, ev.bad_loss, ev.alpha_scale_after);
  }
  if (run.resilience.any()) {
    std::printf("  resilience: %zu recoveries, %zu checkpoints\n",
                run.resilience.recoveries, run.resilience.checkpoints);
  }

  if (!run.attribution.empty()) {
    // Console rendering of the time-budget ledger: steady-state modeled
    // and host splits (the RunReport attribution slice carries the
    // run totals).
    telemetry::AttributionLedger ledger;
    for (const telemetry::EpochAttribution& ea : run.attribution) {
      ledger.add(ea);
    }
    const telemetry::EpochAttribution mean = ledger.mean();
    std::printf("  time budget (mean/epoch over %zu epochs):\n",
                run.attribution.size());
    std::printf("    modeled %.4gs =", mean.modeled_s);
    for (const telemetry::BucketView& b : telemetry::modeled_split(mean)) {
      std::printf(" %s %.4gs", b.name, b.seconds);
    }
    std::printf("\n    host    %.4gs =", mean.host_s);
    for (const telemetry::BucketView& b : telemetry::host_split(mean)) {
      std::printf(" %s %.4gs", b.name, b.seconds);
    }
    std::printf("\n");
  }

  if (session != nullptr && session->trace_enabled()) {
    const std::string trace_out = cli.get("trace-out", "trace.json");
    write_file(trace_out, "Chrome trace", [&](std::ostream& os) {
      report::write_chrome_trace(os, *session);
    });
    if (session->trace().dropped() > 0) {
      std::printf("  (trace buffer full: %zu events dropped)\n",
                  static_cast<std::size_t>(session->trace().dropped()));
    }
  }

  // --report-out: drop the full provenance + three-axis + telemetry
  // manifest next to the console summary (DESIGN.md §13).
  if (!report_out.empty()) {
    report::RunReport rep("cli");
    rep.engine_spec = format_spec(spec);
    rep.seed = gen.seed;
    rep.threads = threads;
    rep.scale = gen.scale;
    rep.host_seconds = host_secs;
    rep.datasets.push_back(report::DatasetInfo::from(ds));
    report::Entry e;
    e.label = task + "/" + dataset + "/" + rep.engine_spec;
    e.task = task;
    e.dataset = dataset;
    e.spec = rep.engine_spec;
    e.alpha = alpha;
    e.diverged = run.diverged;
    e.axes = report::Axes::from(run, run.best_loss());
    e.series_loss = run.losses;
    e.series_seconds = run.epoch_seconds;
    e.resilience = report::ResilienceSlice::from(run.resilience);
    e.attribution = report::AttributionSlice::from(run.attribution);
    rep.add_entry(std::move(e));
    rep.add_metrics(session.get());
    if (const gpusim::Device* dev = engine->device()) {
      rep.add_kernels(*dev);
    }
    write_file(report_out, "run report", [&](std::ostream& os) {
      report::write_report(os, rep);
    });
  }

  const ConvergencePoint p1 = convergence_point(run, run.best_loss(), 0.01);
  std::printf("\n  initial loss        : %.4f\n", run.initial_loss);
  std::printf("  best loss           : %.4f%s\n", run.best_loss(),
              run.diverged ? "  (diverged)" : "");
  std::printf("  hardware efficiency : %s / epoch (modeled, paper N)\n",
              format_seconds(run.seconds_per_epoch()).c_str());
  std::printf("  statistical eff.    : %zu epochs to 1%% of own best\n",
              p1.epochs);
  std::printf("  time to convergence : %s\n",
              format_seconds(p1.seconds).c_str());
  std::printf("  write conflicts     : %s / epoch\n",
              format_count(static_cast<std::uint64_t>(
                  engine->last_cost().write_conflicts)).c_str());
  return run.diverged ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parsgd_cli: fatal: %s\n", e.what());
    return 1;
  }
}
