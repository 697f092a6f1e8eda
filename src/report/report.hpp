// RunReport — the durable, comparable artifact of one bench/CLI run
// (DESIGN.md §13). Captures (a) a provenance manifest: engine spec,
// dataset shapes, seed/threads/scale, compiler + flags + git SHA (the
// CMake-generated build_info.hpp), host wall time next to modeled time;
// (b) the paper's three performance axes per configuration: hardware
// efficiency (sec/epoch), statistical efficiency (epochs to within ε of
// the optimum for ε ∈ {10%, 1%}), and their product, time to convergence;
// (c) a telemetry snapshot: the metrics-registry dump and the per-kernel
// gpusim KernelStats breakdown with cycles attributed to
// memory/compute/atomic-conflict/divergence, so every Fig. 1 behavior in
// a report is explainable per kernel.
//
// The JSON format is schema-versioned and round-trippable:
// read_report(write_report(r)) reproduces r bit-exactly (numbers are
// written with max_digits10 precision). compare_reports diffs two reports
// with per-axis relative tolerances — the regression gate parsgd_compare
// and scripts/check.sh are built on.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "gpusim/device.hpp"
#include "sgd/engine.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"

namespace parsgd::report {

/// Bumped whenever a field changes meaning or moves; the reader rejects
/// any other version (fail-loud — regenerate baselines rather than
/// silently comparing mismatched schemas). Additive policy: new optional
/// fields may ride on the same version, readers must tolerate absence.
inline constexpr int kSchemaVersion = 1;

/// Compile-time provenance, baked in by CMake (build_info.hpp), plus the
/// runtime microkernel provenance resolved once at startup: which ISA the
/// host reports and which kernel variant set the dispatch selected
/// (src/kernel/). Host-measured numbers are only comparable across runs
/// that dispatched the same kernels, so both ride in every RunReport.
struct BuildInfo {
  std::string git_sha;        ///< short SHA at configure time
  std::string git_state;      ///< "clean" / "dirty" / "unknown"
  std::string compiler;       ///< e.g. "GNU 13.2.0"
  std::string build_type;     ///< e.g. "RelWithDebInfo"
  std::string flags;          ///< CMAKE_CXX_FLAGS incl. build-type flags
  std::string cxx_standard;   ///< e.g. "20"
  std::string host_isa;       ///< CPUID: "avx512f" / "avx2+fma" / "baseline"
  std::string kernel_dispatch;///< kernel::dispatch_summary()
};

/// The binary's baked-in build provenance.
const BuildInfo& build_info();

/// Dataset shape manifest (the Table I columns that determine cost).
struct DatasetInfo {
  std::string name;
  std::size_t rows = 0;        ///< scaled N actually trained on
  std::size_t paper_rows = 0;  ///< paper-scale N the times extrapolate to
  std::size_t cols = 0;        ///< d
  std::size_t nnz = 0;         ///< total stored non-zeros (scaled set)
  double nnz_avg = 0;          ///< mean nnz per example
  double sparsity_percent = 0; ///< Table I definition: nnz_avg / d * 100

  static DatasetInfo from(const Dataset& ds);
};

/// The paper's three axes for one configuration. Negative = not
/// reached / not applicable (JSON has no Infinity, so -1 is the sentinel).
struct Axes {
  double sec_per_epoch = -1;          ///< hardware efficiency
  double epochs_to_10pct = -1;        ///< statistical efficiency, ε = 10%
  double epochs_to_1pct = -1;         ///< statistical efficiency, ε = 1%
  double ttc_10pct = -1;              ///< time to convergence, ε = 10%
  double ttc_1pct = -1;               ///< time to convergence, ε = 1%
  double modeled_total_seconds = -1;  ///< full-run modeled time

  /// Computes all axes from a trajectory and its convergence reference.
  static Axes from(const RunResult& run, double optimal_loss);
};

/// Per-entry resilience snapshot (schema v2 slice, additive; the
/// watchdog's ResilienceStats flattened to report scalars, DESIGN.md
/// §11). All-zero = absent (the "resilience" object is omitted from the
/// JSON and old readers never see it). Round-trips through
/// write_report/read_report; keys from older writers (backup_wins,
/// ladder_*, final_level, ...) are ignored on read. compare_reports
/// ignores the slice entirely — it is provenance for explaining a run's
/// recovery behavior, not a regression axis.
struct ResilienceSlice {
  double recoveries = 0;   ///< rollback + retry events
  double checkpoints = 0;  ///< checkpoints written

  bool any() const { return recoveries > 0 || checkpoints > 0; }
  static ResilienceSlice from(const ResilienceStats& s);
};

/// Per-entry time-attribution snapshot (additive slice like
/// ResilienceSlice): the run's epoch time-budget ledger (DESIGN.md §18)
/// folded to per-bucket totals, modeled buckets in modeled seconds and
/// host buckets in wall seconds. epochs == 0 = absent (the "attribution" object is
/// omitted from the JSON and pre-attribution readers never see it).
/// Round-trips through write_report/read_report; compare_reports ignores
/// it — the slice explains *why* sec/epoch moved (attribute_regressions),
/// it is not a regression axis itself.
struct AttributionSlice {
  double epochs = 0;          ///< ledger rows folded into the totals
  double m_compute_s = 0;     ///< modeled kernel/compute seconds
  double m_net_s = 0;         ///< modeled exposed network seconds
  double m_stall_s = 0;       ///< modeled staleness-stall seconds
  double h_compute_s = 0;     ///< host compute residual
  double h_queue_s = 0;       ///< host pool queue-wait share
  double h_ready_s = 0;       ///< host graph ready-wait share
  double h_recovery_s = 0;    ///< host watchdog rollback time
  double h_checkpoint_s = 0;  ///< host checkpoint I/O

  bool any() const { return epochs > 0; }
  double modeled_total() const { return m_compute_s + m_net_s + m_stall_s; }
  double host_total() const {
    return h_compute_s + h_queue_s + h_ready_s + h_recovery_s +
           h_checkpoint_s;
  }
  /// Folds a run's per-epoch ledger (RunResult::attribution).
  static AttributionSlice from(
      const std::vector<telemetry::EpochAttribution>& ledger);
};

/// One configuration's row in a report. `label` is the comparator's join
/// key and must be unique within a report.
struct Entry {
  std::string label;
  std::string task;     ///< "LR"/"SVM"/"MLP" ("" when not task-shaped)
  std::string dataset;
  std::string spec;     ///< engine spec string (format_spec), may be ""
  double alpha = 0;
  bool diverged = false;
  Axes axes;
  /// Bench-specific named scalars (speedups, model constants, shape
  /// stats). Compared with the extras tolerance; order is preserved.
  std::vector<std::pair<std::string, double>> extras;
  /// Optional per-epoch trajectory (schema v2 slice, additive): loss and
  /// modeled seconds per epoch, parallel vectors. Empty = absent (the
  /// "series" object is omitted from the JSON). Round-trips through
  /// write_report/read_report; compare_reports ignores it entirely — the
  /// series is provenance for plotting, not a regression axis.
  std::vector<double> series_loss;
  std::vector<double> series_seconds;
  /// Optional resilience snapshot (see ResilienceSlice).
  ResilienceSlice resilience;
  /// Optional time-attribution snapshot (see AttributionSlice).
  AttributionSlice attribution;
};

/// Per-kernel simulator statistics with the modeled cycles attributed to
/// the four Fig. 1 cost classes (gpusim::attribute_cycles).
struct KernelReport {
  std::string name;
  double launches = 0;
  double sm_cycles = 0;          ///< modeled kernel time, cycles
  double mem_transactions = 0;
  double atomic_conflicts = 0;
  double memory_cycles = 0;      ///< attribution: DRAM/L2 segment slots
  double compute_cycles = 0;     ///< attribution: issue-slot pressure
  double atomic_cycles = 0;      ///< attribution: atomic serialization
  double divergence_cycles = 0;  ///< attribution: masked-lane waste

  static KernelReport from(const std::string& name,
                           const gpusim::KernelStats& stats,
                           const GpuSpec& spec);
};

/// The whole artifact: provenance + entries + telemetry snapshot.
struct RunReport {
  int schema_version = kSchemaVersion;
  std::string name;              ///< e.g. "table2_sync"

  BuildInfo build;               ///< defaults to build_info()
  std::string engine_spec;       ///< single-run reports; "" for sweeps
  std::uint64_t seed = 0;
  int threads = 0;
  double scale = 0;              ///< dataset downscale factor
  double host_seconds = 0;       ///< real wall time of the run
  double modeled_seconds = 0;    ///< modeled paper-scale time (sum)

  std::vector<DatasetInfo> datasets;
  std::vector<Entry> entries;
  std::vector<telemetry::MetricSample> metrics;
  std::vector<KernelReport> kernels;

  RunReport() : build(build_info()) {}
  explicit RunReport(std::string report_name) : RunReport() {
    name = std::move(report_name);
  }

  const Entry* find(const std::string& label) const;

  /// Appends the registry dump of `session` (no-op for null) and, when
  /// absent, records nothing — reports stay valid with telemetry off.
  void add_metrics(const telemetry::TelemetrySession* session);
  /// Appends the device's per-kernel stats with cycle attribution.
  void add_kernels(const gpusim::Device& device);
  /// Sums an entry's modeled_total_seconds into modeled_seconds and
  /// appends it.
  void add_entry(Entry entry);
};

/// Writes the versioned JSON document (pretty-printed, deterministic).
void write_report(std::ostream& os, const RunReport& report);

/// Parses a report; throws CheckError on malformed input or on a
/// schema_version other than kSchemaVersion.
RunReport read_report(std::istream& is);
RunReport load_report(const std::string& path);

/// Writes `report` as BENCH_<report.name>.json under `dir` (created if
/// missing) and returns the path. An empty `dir` resolves to
/// $PARSGD_REPORT_DIR, else ".". The committed baselines under
/// bench/results are only ever written through an explicit `dir`.
std::string emit(const RunReport& report, const std::string& dir = "");

// ---- regression comparator ----------------------------------------------

/// Per-axis relative tolerances: `current` may exceed `baseline` by this
/// fraction before the diff counts as a regression. Improvements always
/// pass. Statistical efficiency gets the hw tolerance's sibling because
/// epoch counts are integers and small runs quantize coarsely.
struct CompareOptions {
  double tol_hw = 0.10;     ///< sec/epoch, modeled_total_seconds
  double tol_stat = 0.10;   ///< epochs-to-ε
  double tol_ttc = 0.15;    ///< time-to-convergence (product ⇒ loosest)
  double tol_extra = 0.25;  ///< bench-specific extras
  bool check_extras = true;
  /// Require identical git SHAs (off by default: the whole point is
  /// comparing across commits; on for A/A noise studies).
  bool require_same_sha = false;
};

struct Regression {
  std::string label;   ///< entry label ("" for report-level findings)
  std::string axis;    ///< which measure regressed
  double baseline = 0;
  double current = 0;
  double rel = 0;      ///< (current - baseline) / baseline

  std::string describe() const;
};

struct CompareResult {
  std::vector<Regression> regressions;
  std::vector<std::string> notes;  ///< improvements, skipped measures
  bool ok() const { return regressions.empty(); }
};

/// Diffs `current` against `baseline` entry-by-entry (joined on label).
/// Regressions: a gated measure worsening beyond its tolerance, a
/// previously-reached convergence level becoming unreached, a previously
/// clean entry diverging, or an entry disappearing. Throws CheckError on
/// schema/name mismatch (different benches are not comparable).
CompareResult compare_reports(const RunReport& baseline,
                              const RunReport& current,
                              const CompareOptions& opts = {});

// ---- regression attribution ---------------------------------------------

/// One bucket's movement between two entries' attribution slices, in mean
/// modeled seconds per epoch.
struct BucketDelta {
  std::string bucket;     ///< "compute" / "net" / "stall"
  double baseline_s = 0;  ///< baseline mean s/epoch in the bucket
  double current_s = 0;
  double delta_s = 0;     ///< current_s - baseline_s (positive = slower)
};

/// Explains a modeled sec/epoch delta between two entries bucket by
/// bucket (`parsgd_compare --attribute`). `available` is false when
/// either side carries no attribution slice — runs recorded before the
/// ledger existed, or with attribution off.
struct AttributionDiff {
  bool available = false;
  std::vector<BucketDelta> buckets;  ///< fixed order: compute, net, stall
  std::string dominant;              ///< bucket with the largest growth
  double total_delta_s = 0;          ///< summed bucket deltas

  /// "attribution: dominant bucket 'net' +0.12s/epoch (compute +0.01,
  /// net +0.12, stall -0.00)" — or the no-data explanation.
  std::string describe() const;
};

/// Diffs the two entries' attribution slices (mean s/epoch per bucket).
AttributionDiff diff_attribution(const Entry& baseline, const Entry& current);

/// For every sec/epoch-family regression in `result`, appends a note that
/// names the dominant regressed bucket from the two reports' attribution
/// slices (joined on entry label). Notes flow into parsgd_compare's text
/// output unchanged.
void attribute_regressions(const RunReport& baseline, const RunReport& current,
                           CompareResult& result);

}  // namespace parsgd::report
