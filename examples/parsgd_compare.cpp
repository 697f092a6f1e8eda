// parsgd_compare — the perf-regression gate. Diffs two RunReport JSON
// files (the BENCH_*.json artifacts every bench emits) entry-by-entry
// with per-axis relative tolerances, and exits non-zero when the current
// report regressed against the baseline. Designed for CI:
//
//   ./bench_table2_sync --quick --report-dir=old    # at the base commit
//   ./bench_table2_sync --quick --report-dir=new    # at HEAD
//   ./parsgd_compare old/BENCH_table2_sync.json new/BENCH_table2_sync.json
//
// Exit codes: 0 = no regressions, 1 = regressions found, 2 = usage /
// unreadable or mismatched reports.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "report/report.hpp"

using namespace parsgd;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: parsgd_compare <baseline.json> <current.json>\n"
               "       [--tol-hw=0.10] [--tol-stat=0.10] [--tol-ttc=0.15]\n"
               "       [--tol-extra=0.25] [--no-extras]"
               " [--require-same-sha]\n"
               "       [--attribute]      explain sec/epoch regressions by\n"
               "                          diffing attribution bucket splits\n"
               "exit: 0 ok, 1 regressions, 2 bad input\n",
               msg);
  std::exit(2);
}

void print_provenance(const char* role, const report::RunReport& r) {
  std::printf("  %-8s %s  (git %s/%s, %s, %s, scale 1/%g, %zu entries)\n",
              role, r.name.c_str(), r.build.git_sha.c_str(),
              r.build.git_state.c_str(), r.build.compiler.c_str(),
              r.build.build_type.c_str(), r.scale, r.entries.size());
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto& paths = cli.positional();
  if (const std::string bad = cli.unknown_flag(
          {"tol-hw", "tol-stat", "tol-ttc", "tol-extra", "no-extras",
           "require-same-sha", "attribute"});
      !bad.empty()) {
    usage(("unknown flag --" + bad).c_str());
  }
  if (paths.size() != 2) usage("expected exactly two report paths");

  report::CompareOptions opts;
  opts.tol_hw = cli.get_double("tol-hw", opts.tol_hw);
  opts.tol_stat = cli.get_double("tol-stat", opts.tol_stat);
  opts.tol_ttc = cli.get_double("tol-ttc", opts.tol_ttc);
  opts.tol_extra = cli.get_double("tol-extra", opts.tol_extra);
  opts.check_extras = !cli.get_bool("no-extras", false);
  opts.require_same_sha = cli.get_bool("require-same-sha", false);

  const report::RunReport baseline = report::load_report(paths[0]);
  const report::RunReport current = report::load_report(paths[1]);
  std::printf("parsgd_compare (tol hw=%g stat=%g ttc=%g extra=%g)\n",
              opts.tol_hw, opts.tol_stat, opts.tol_ttc, opts.tol_extra);
  print_provenance("baseline", baseline);
  print_provenance("current", current);

  report::CompareResult res =
      report::compare_reports(baseline, current, opts);
  // --attribute: explain every sec/epoch-family regression from the two
  // reports' attribution slices. The explanations ride as notes, printed
  // below.
  if (cli.get_bool("attribute", false)) {
    report::attribute_regressions(baseline, current, res);
  }
  for (const std::string& note : res.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const report::Regression& reg : res.regressions) {
    std::printf("  REGRESSION: %s\n", reg.describe().c_str());
  }
  if (!res.ok()) {
    std::printf("FAIL: %zu regression(s) against %s\n",
                res.regressions.size(), paths[0].c_str());
    return 1;
  }
  std::printf("OK: no regressions (%zu entries compared, %zu notes)\n",
              current.entries.size(), res.notes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parsgd_compare: fatal: %s\n", e.what());
    return 2;
  }
}
