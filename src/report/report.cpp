#include "report/report.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "kernel/kernels.hpp"
#include "report/build_info.hpp"
#include "report/json.hpp"
#include "sgd/convergence.hpp"

namespace parsgd::report {

namespace {

/// JSON has no Infinity/NaN; the report's "not reached" sentinel is -1.
double num(double v) { return std::isfinite(v) ? v : -1.0; }

double get_num(const Json& obj, const std::string& key, double dflt = -1.0) {
  const Json* v = obj.find(key);
  return v == nullptr ? dflt : v->as_number();
}

std::string get_str(const Json& obj, const std::string& key) {
  const Json* v = obj.find(key);
  return v == nullptr ? std::string() : v->as_string();
}

/// An integer field as T: throws CheckError naming `key` unless the
/// number is a non-negative integer below 2^digits(T), where the cast is
/// exact and defined.
template <typename T>
T to_count(const Json& v, const std::string& key) {
  const double d = v.as_number();
  PARSGD_CHECK(d >= 0 && d == std::floor(d) &&
                   d < std::ldexp(1.0, std::numeric_limits<T>::digits),
               "report field '" << key << "' = " << d
                                << " is not an integer in range");
  return static_cast<T>(d);
}

/// to_count of an optional member; 0 when absent.
template <typename T>
T get_count(const Json& obj, const std::string& key) {
  const Json* v = obj.find(key);
  return v == nullptr ? T{0} : to_count<T>(*v, key);
}

bool get_bool(const Json& obj, const std::string& key, bool dflt = false) {
  const Json* v = obj.find(key);
  return v == nullptr ? dflt : v->as_bool();
}

telemetry::MetricKind parse_kind(const std::string& s) {
  using telemetry::MetricKind;
  for (MetricKind k : {MetricKind::kCounter, MetricKind::kGauge,
                       MetricKind::kHistogram}) {
    if (s == telemetry::to_string(k)) return k;
  }
  PARSGD_CHECK(false, "unknown metric kind '" << s << "'");
}

Json axes_to_json(const Axes& a) {
  Json o{JsonMembers{}};
  o.set("sec_per_epoch", num(a.sec_per_epoch));
  o.set("epochs_to_10pct", num(a.epochs_to_10pct));
  o.set("epochs_to_1pct", num(a.epochs_to_1pct));
  o.set("ttc_10pct", num(a.ttc_10pct));
  o.set("ttc_1pct", num(a.ttc_1pct));
  o.set("modeled_total_seconds", num(a.modeled_total_seconds));
  return o;
}

Axes axes_from_json(const Json& o) {
  Axes a;
  a.sec_per_epoch = get_num(o, "sec_per_epoch");
  a.epochs_to_10pct = get_num(o, "epochs_to_10pct");
  a.epochs_to_1pct = get_num(o, "epochs_to_1pct");
  a.ttc_10pct = get_num(o, "ttc_10pct");
  a.ttc_1pct = get_num(o, "ttc_1pct");
  a.modeled_total_seconds = get_num(o, "modeled_total_seconds");
  return a;
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_sha = PARSGD_BUILD_GIT_SHA;
    b.git_state = PARSGD_BUILD_GIT_DIRTY;
    b.compiler = PARSGD_BUILD_COMPILER " " PARSGD_BUILD_COMPILER_VERSION;
    b.build_type = PARSGD_BUILD_TYPE;
    b.flags = PARSGD_BUILD_FLAGS;
    b.cxx_standard = PARSGD_BUILD_CXX_STANDARD;
    b.host_isa = kernel::isa_name(kernel::detect_cpu_features());
    b.kernel_dispatch = kernel::dispatch_summary();
    return b;
  }();
  return info;
}

DatasetInfo DatasetInfo::from(const Dataset& ds) {
  DatasetInfo info;
  info.name = ds.profile.name;
  info.rows = ds.n();
  info.paper_rows = ds.profile.paper_n();
  info.cols = ds.d();
  info.nnz = ds.x.nnz();
  const NnzStats nnz = ds.nnz_stats();
  info.nnz_avg = nnz.avg;
  info.sparsity_percent = ds.profile.sparsity_percent();
  return info;
}

Axes Axes::from(const RunResult& run, double optimal_loss) {
  Axes a;
  if (run.epochs() == 0) return a;
  a.sec_per_epoch = run.seconds_per_epoch();
  a.modeled_total_seconds = run.total_seconds();
  const ConvergencePoint c10 = convergence_point(run, optimal_loss, 0.10);
  const ConvergencePoint c1 = convergence_point(run, optimal_loss, 0.01);
  if (c10.reached) {
    a.epochs_to_10pct = static_cast<double>(c10.epochs);
    a.ttc_10pct = c10.seconds;
  }
  if (c1.reached) {
    a.epochs_to_1pct = static_cast<double>(c1.epochs);
    a.ttc_1pct = c1.seconds;
  }
  return a;
}

KernelReport KernelReport::from(const std::string& name,
                                const gpusim::KernelStats& stats,
                                const GpuSpec& spec) {
  KernelReport k;
  k.name = name;
  k.launches = stats.launches;
  k.sm_cycles = stats.sm_cycles;
  k.mem_transactions = stats.mem_transactions;
  k.atomic_conflicts = stats.atomic_conflicts;
  const gpusim::CycleAttribution a = gpusim::attribute_cycles(spec, stats);
  k.memory_cycles = a.memory_cycles;
  k.compute_cycles = a.compute_cycles;
  k.atomic_cycles = a.atomic_cycles;
  k.divergence_cycles = a.divergence_cycles;
  return k;
}

ResilienceSlice ResilienceSlice::from(const ResilienceStats& s) {
  ResilienceSlice out;
  out.recoveries = static_cast<double>(s.recoveries);
  out.checkpoints = static_cast<double>(s.checkpoints);
  return out;
}

AttributionSlice AttributionSlice::from(
    const std::vector<telemetry::EpochAttribution>& ledger) {
  AttributionSlice out;
  out.epochs = static_cast<double>(ledger.size());
  for (const telemetry::EpochAttribution& e : ledger) {
    out.m_compute_s += e.m_compute_s;
    out.m_net_s += e.m_net_s;
    out.m_stall_s += e.m_stall_s;
    out.h_compute_s += e.h_compute_s;
    out.h_queue_s += e.h_queue_s;
    out.h_ready_s += e.h_ready_s;
    out.h_recovery_s += e.h_recovery_s;
    out.h_checkpoint_s += e.h_checkpoint_s;
  }
  return out;
}

const Entry* RunReport::find(const std::string& label) const {
  for (const Entry& e : entries) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

void RunReport::add_metrics(const telemetry::TelemetrySession* session) {
  if (session == nullptr) return;
  telemetry::MetricsSnapshot snap = session->snapshot();
  for (telemetry::MetricSample& s : snap.samples) {
    metrics.push_back(std::move(s));
  }
}

void RunReport::add_kernels(const gpusim::Device& device) {
  for (const auto& [kernel_name, stats] : device.named_stats()) {
    kernels.push_back(KernelReport::from(kernel_name, stats, device.spec()));
  }
}

void RunReport::add_entry(Entry entry) {
  if (entry.axes.modeled_total_seconds > 0) {
    modeled_seconds += entry.axes.modeled_total_seconds;
  }
  entries.push_back(std::move(entry));
}

void write_report(std::ostream& os, const RunReport& report) {
  Json doc{JsonMembers{}};
  doc.set("schema_version", report.schema_version);
  doc.set("name", report.name);

  Json build{JsonMembers{}};
  build.set("git_sha", report.build.git_sha);
  build.set("git_state", report.build.git_state);
  build.set("compiler", report.build.compiler);
  build.set("build_type", report.build.build_type);
  build.set("flags", report.build.flags);
  build.set("cxx_standard", report.build.cxx_standard);
  build.set("host_isa", report.build.host_isa);
  build.set("kernel_dispatch", report.build.kernel_dispatch);
  doc.set("build", std::move(build));

  doc.set("engine_spec", report.engine_spec);
  // Stored as a JSON number: exact for seeds below 2^53, which covers
  // every seed the studies use.
  doc.set("seed", static_cast<double>(report.seed));
  doc.set("threads", report.threads);
  doc.set("scale", num(report.scale));
  doc.set("host_seconds", num(report.host_seconds));
  doc.set("modeled_seconds", num(report.modeled_seconds));

  Json datasets{JsonArray{}};
  for (const DatasetInfo& d : report.datasets) {
    Json o{JsonMembers{}};
    o.set("name", d.name);
    o.set("rows", d.rows);
    o.set("paper_rows", d.paper_rows);
    o.set("cols", d.cols);
    o.set("nnz", d.nnz);
    o.set("nnz_avg", num(d.nnz_avg));
    o.set("sparsity_percent", num(d.sparsity_percent));
    datasets.push(std::move(o));
  }
  doc.set("datasets", std::move(datasets));

  Json entries{JsonArray{}};
  for (const Entry& e : report.entries) {
    Json o{JsonMembers{}};
    o.set("label", e.label);
    o.set("task", e.task);
    o.set("dataset", e.dataset);
    o.set("spec", e.spec);
    o.set("alpha", num(e.alpha));
    o.set("diverged", e.diverged);
    o.set("axes", axes_to_json(e.axes));
    Json extras{JsonMembers{}};
    for (const auto& [k, v] : e.extras) extras.set(k, num(v));
    o.set("extras", std::move(extras));
    if (!e.series_loss.empty() || !e.series_seconds.empty()) {
      Json series{JsonMembers{}};
      Json loss{JsonArray{}};
      for (double v : e.series_loss) loss.push(Json{num(v)});
      series.set("loss", std::move(loss));
      Json seconds{JsonArray{}};
      for (double v : e.series_seconds) seconds.push(Json{num(v)});
      series.set("seconds", std::move(seconds));
      o.set("series", std::move(series));
    }
    if (e.resilience.any()) {
      const ResilienceSlice& rs = e.resilience;
      Json res{JsonMembers{}};
      res.set("recoveries", num(rs.recoveries));
      res.set("checkpoints", num(rs.checkpoints));
      o.set("resilience", std::move(res));
    }
    if (e.attribution.any()) {
      const AttributionSlice& as = e.attribution;
      Json at{JsonMembers{}};
      at.set("epochs", num(as.epochs));
      Json m{JsonMembers{}};
      m.set("compute_s", num(as.m_compute_s));
      m.set("net_s", num(as.m_net_s));
      m.set("stall_s", num(as.m_stall_s));
      at.set("modeled", std::move(m));
      Json h{JsonMembers{}};
      h.set("compute_s", num(as.h_compute_s));
      h.set("queue_s", num(as.h_queue_s));
      h.set("ready_s", num(as.h_ready_s));
      h.set("recovery_s", num(as.h_recovery_s));
      h.set("checkpoint_s", num(as.h_checkpoint_s));
      at.set("host", std::move(h));
      o.set("attribution", std::move(at));
    }
    entries.push(std::move(o));
  }
  doc.set("entries", std::move(entries));

  Json metrics{JsonArray{}};
  for (const telemetry::MetricSample& m : report.metrics) {
    Json o{JsonMembers{}};
    o.set("name", m.name);
    o.set("kind", telemetry::to_string(m.kind));
    o.set("value", num(m.value));
    if (m.kind == telemetry::MetricKind::kHistogram) {
      o.set("count", static_cast<double>(m.count));
      o.set("p50", num(m.p50));
      o.set("p90", num(m.p90));
      o.set("p99", num(m.p99));
      o.set("max", num(m.max));
    }
    metrics.push(std::move(o));
  }
  doc.set("metrics", std::move(metrics));

  Json kernels{JsonArray{}};
  for (const KernelReport& k : report.kernels) {
    Json o{JsonMembers{}};
    o.set("name", k.name);
    o.set("launches", num(k.launches));
    o.set("sm_cycles", num(k.sm_cycles));
    o.set("mem_transactions", num(k.mem_transactions));
    o.set("atomic_conflicts", num(k.atomic_conflicts));
    o.set("memory_cycles", num(k.memory_cycles));
    o.set("compute_cycles", num(k.compute_cycles));
    o.set("atomic_cycles", num(k.atomic_cycles));
    o.set("divergence_cycles", num(k.divergence_cycles));
    kernels.push(std::move(o));
  }
  doc.set("kernels", std::move(kernels));

  os << doc.dump(2) << '\n';
}

RunReport read_report(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const Json doc = parse_json(buf.str());

  const int version = to_count<int>(doc.at("schema_version"), "schema_version");
  PARSGD_CHECK(version == kSchemaVersion,
               "report schema_version " << version << " != supported "
                                        << kSchemaVersion
                                        << " — regenerate the report");

  RunReport r;
  r.schema_version = version;
  r.name = get_str(doc, "name");

  if (const Json* b = doc.find("build")) {
    r.build.git_sha = get_str(*b, "git_sha");
    r.build.git_state = get_str(*b, "git_state");
    r.build.compiler = get_str(*b, "compiler");
    r.build.build_type = get_str(*b, "build_type");
    r.build.flags = get_str(*b, "flags");
    r.build.cxx_standard = get_str(*b, "cxx_standard");
    // Absent in pre-SIMD reports (additive-field policy): stays "".
    r.build.host_isa = get_str(*b, "host_isa");
    r.build.kernel_dispatch = get_str(*b, "kernel_dispatch");
  }

  r.engine_spec = get_str(doc, "engine_spec");
  r.seed = get_count<std::uint64_t>(doc, "seed");
  r.threads = get_count<int>(doc, "threads");
  r.scale = get_num(doc, "scale", 0);
  r.host_seconds = get_num(doc, "host_seconds", 0);
  r.modeled_seconds = get_num(doc, "modeled_seconds", 0);

  if (const Json* arr = doc.find("datasets")) {
    for (const Json& o : arr->as_array()) {
      DatasetInfo d;
      d.name = get_str(o, "name");
      d.rows = get_count<std::size_t>(o, "rows");
      d.paper_rows = get_count<std::size_t>(o, "paper_rows");
      d.cols = get_count<std::size_t>(o, "cols");
      d.nnz = get_count<std::size_t>(o, "nnz");
      d.nnz_avg = get_num(o, "nnz_avg", 0);
      d.sparsity_percent = get_num(o, "sparsity_percent", 0);
      r.datasets.push_back(std::move(d));
    }
  }

  if (const Json* arr = doc.find("entries")) {
    for (const Json& o : arr->as_array()) {
      Entry e;
      e.label = get_str(o, "label");
      e.task = get_str(o, "task");
      e.dataset = get_str(o, "dataset");
      e.spec = get_str(o, "spec");
      e.alpha = get_num(o, "alpha", 0);
      e.diverged = get_bool(o, "diverged");
      if (const Json* axes = o.find("axes")) e.axes = axes_from_json(*axes);
      if (const Json* extras = o.find("extras")) {
        for (const auto& [k, v] : extras->as_object()) {
          e.extras.emplace_back(k, v.as_number());
        }
      }
      // Absent in pre-series reports (additive-field policy): stays empty.
      if (const Json* series = o.find("series")) {
        if (const Json* loss = series->find("loss")) {
          for (const Json& v : loss->as_array()) {
            e.series_loss.push_back(v.as_number());
          }
        }
        if (const Json* seconds = series->find("seconds")) {
          for (const Json& v : seconds->as_array()) {
            e.series_seconds.push_back(v.as_number());
          }
        }
      }
      // Absent in pre-resilience reports (additive-field policy).
      if (const Json* res = o.find("resilience")) {
        e.resilience.recoveries = get_num(*res, "recoveries", 0);
        e.resilience.checkpoints = get_num(*res, "checkpoints", 0);
      }
      // Absent in pre-attribution reports (additive-field policy).
      if (const Json* at = o.find("attribution")) {
        e.attribution.epochs = get_num(*at, "epochs", 0);
        if (const Json* m = at->find("modeled")) {
          e.attribution.m_compute_s = get_num(*m, "compute_s", 0);
          e.attribution.m_net_s = get_num(*m, "net_s", 0);
          e.attribution.m_stall_s = get_num(*m, "stall_s", 0);
        }
        if (const Json* h = at->find("host")) {
          e.attribution.h_compute_s = get_num(*h, "compute_s", 0);
          e.attribution.h_queue_s = get_num(*h, "queue_s", 0);
          e.attribution.h_ready_s = get_num(*h, "ready_s", 0);
          e.attribution.h_recovery_s = get_num(*h, "recovery_s", 0);
          e.attribution.h_checkpoint_s = get_num(*h, "checkpoint_s", 0);
        }
      }
      r.entries.push_back(std::move(e));
    }
  }

  if (const Json* arr = doc.find("metrics")) {
    for (const Json& o : arr->as_array()) {
      telemetry::MetricSample m;
      m.name = get_str(o, "name");
      m.kind = parse_kind(get_str(o, "kind"));
      m.value = get_num(o, "value", 0);
      m.count = get_count<std::uint64_t>(o, "count");
      m.p50 = get_num(o, "p50", 0);
      m.p90 = get_num(o, "p90", 0);
      m.p99 = get_num(o, "p99", 0);
      m.max = get_num(o, "max", 0);
      r.metrics.push_back(std::move(m));
    }
  }

  if (const Json* arr = doc.find("kernels")) {
    for (const Json& o : arr->as_array()) {
      KernelReport k;
      k.name = get_str(o, "name");
      k.launches = get_num(o, "launches", 0);
      k.sm_cycles = get_num(o, "sm_cycles", 0);
      k.mem_transactions = get_num(o, "mem_transactions", 0);
      k.atomic_conflicts = get_num(o, "atomic_conflicts", 0);
      k.memory_cycles = get_num(o, "memory_cycles", 0);
      k.compute_cycles = get_num(o, "compute_cycles", 0);
      k.atomic_cycles = get_num(o, "atomic_cycles", 0);
      k.divergence_cycles = get_num(o, "divergence_cycles", 0);
      r.kernels.push_back(std::move(k));
    }
  }

  return r;
}

RunReport load_report(const std::string& path) {
  std::ifstream is(path);
  PARSGD_CHECK(is.good(), "cannot open report '" << path << "'");
  return read_report(is);
}

std::string emit(const RunReport& report, const std::string& dir) {
  namespace fs = std::filesystem;
  PARSGD_CHECK(!report.name.empty(), "report needs a name to be emitted");
  fs::path out_dir;
  if (!dir.empty()) {
    out_dir = dir;
  } else if (const char* env = std::getenv("PARSGD_REPORT_DIR");
             env != nullptr && *env != '\0') {
    out_dir = env;
  } else {
    out_dir = ".";
  }
  fs::create_directories(out_dir);
  const fs::path path = out_dir / ("BENCH_" + report.name + ".json");
  std::ofstream os(path);
  PARSGD_CHECK(os.good(), "cannot write report '" << path.string() << "'");
  write_report(os, report);
  os.flush();
  PARSGD_CHECK(os.good(), "short write on report '" << path.string() << "'");
  return path.string();
}

// ---- regression comparator ----------------------------------------------

std::string Regression::describe() const {
  std::ostringstream os;
  if (!label.empty()) os << '[' << label << "] ";
  os << axis << ": ";
  if (current < 0 && baseline >= 0) {
    os << "was " << baseline << ", now not reached";
  } else if (baseline < 0 && current >= 0) {
    os << "was absent, now " << current;
  } else {
    os << baseline << " -> " << current;
    const double pct = rel * 100.0;
    os << " (" << (pct >= 0 ? "+" : "") << pct << "%)";
  }
  return os.str();
}

namespace {

/// One gated scalar where larger is worse. Unreached sentinels: baseline
/// reached -> unreached is a regression; baseline unreached is skipped
/// (with a note when the current run now reaches it).
void gate(const std::string& label, const std::string& axis, double base,
          double cur, double tol, CompareResult& out) {
  if (base < 0) {
    if (cur >= 0) {
      out.notes.push_back("[" + label + "] " + axis +
                          ": newly reached (improvement)");
    }
    return;
  }
  if (cur < 0) {
    out.regressions.push_back({label, axis, base, cur, 0});
    return;
  }
  if (base == 0) return;  // degenerate reference; nothing to gate against
  const double rel = (cur - base) / base;
  if (rel > tol) {
    out.regressions.push_back({label, axis, base, cur, rel});
  } else if (rel < -tol) {
    std::ostringstream os;
    os << '[' << label << "] " << axis << ": improved " << base << " -> "
       << cur;
    out.notes.push_back(os.str());
  }
}

}  // namespace

CompareResult compare_reports(const RunReport& baseline,
                              const RunReport& current,
                              const CompareOptions& opts) {
  PARSGD_CHECK(baseline.schema_version == current.schema_version,
               "schema mismatch: " << baseline.schema_version << " vs "
                                   << current.schema_version);
  PARSGD_CHECK(baseline.name == current.name,
               "comparing different benches: '"
                   << baseline.name << "' vs '" << current.name << "'");

  CompareResult out;
  if (opts.require_same_sha &&
      baseline.build.git_sha != current.build.git_sha) {
    out.regressions.push_back(
        {"", "git_sha (" + baseline.build.git_sha + " vs " +
             current.build.git_sha + ")", 0, 0, 0});
  }

  for (const Entry& base : baseline.entries) {
    const Entry* cur = current.find(base.label);
    if (cur == nullptr) {
      out.regressions.push_back(
          {base.label, "entry disappeared", 0, 0, 0});
      continue;
    }
    if (!base.diverged && cur->diverged) {
      out.regressions.push_back({base.label, "diverged", 0, 1, 0});
      continue;
    }
    gate(base.label, "sec_per_epoch", base.axes.sec_per_epoch,
         cur->axes.sec_per_epoch, opts.tol_hw, out);
    gate(base.label, "modeled_total_seconds",
         base.axes.modeled_total_seconds, cur->axes.modeled_total_seconds,
         opts.tol_hw, out);
    gate(base.label, "epochs_to_10pct", base.axes.epochs_to_10pct,
         cur->axes.epochs_to_10pct, opts.tol_stat, out);
    gate(base.label, "epochs_to_1pct", base.axes.epochs_to_1pct,
         cur->axes.epochs_to_1pct, opts.tol_stat, out);
    gate(base.label, "ttc_10pct", base.axes.ttc_10pct, cur->axes.ttc_10pct,
         opts.tol_ttc, out);
    gate(base.label, "ttc_1pct", base.axes.ttc_1pct, cur->axes.ttc_1pct,
         opts.tol_ttc, out);

    if (!opts.check_extras) continue;
    for (const auto& [k, base_v] : base.extras) {
      const double* cur_v = nullptr;
      for (const auto& [ck, cv] : cur->extras) {
        if (ck == k) {
          cur_v = &cv;
          break;
        }
      }
      if (cur_v == nullptr) {
        out.regressions.push_back(
            {base.label, "extra:" + k + " disappeared", base_v, -1, 0});
        continue;
      }
      // Extras are direction-free tracked quantities (speedups, model
      // constants): drift beyond tolerance in either direction is flagged.
      if (base_v != 0) {
        const double rel = (*cur_v - base_v) / std::abs(base_v);
        if (std::abs(rel) > opts.tol_extra) {
          out.regressions.push_back(
              {base.label, "extra:" + k, base_v, *cur_v, rel});
        }
      }
    }
  }

  for (const Entry& cur : current.entries) {
    if (baseline.find(cur.label) == nullptr) {
      out.notes.push_back("[" + cur.label + "] new entry (not in baseline)");
    }
  }
  return out;
}

// ---- regression attribution ---------------------------------------------

namespace {

std::string fmt_delta(double v) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << (v >= 0 ? "+" : "") << v;
  return os.str();
}

}  // namespace

std::string AttributionDiff::describe() const {
  if (!available) {
    return "attribution: no ledger on one or both sides "
           "(rerun with --attribute)";
  }
  std::ostringstream os;
  os << "attribution: dominant bucket '" << dominant << "' "
     << fmt_delta(total_delta_s) << "s/epoch total (";
  bool first = true;
  for (const BucketDelta& b : buckets) {
    if (!first) os << ", ";
    first = false;
    os << b.bucket << ' ' << fmt_delta(b.delta_s);
  }
  os << ")";
  return os.str();
}

AttributionDiff diff_attribution(const Entry& baseline, const Entry& current) {
  AttributionDiff out;
  if (!baseline.attribution.any() || !current.attribution.any()) return out;
  out.available = true;
  const AttributionSlice& b = baseline.attribution;
  const AttributionSlice& c = current.attribution;
  const auto mean = [](double total, double epochs) {
    return epochs > 0 ? total / epochs : 0.0;
  };
  const struct {
    const char* name;
    double base;
    double cur;
  } rows[] = {
      {"compute", mean(b.m_compute_s, b.epochs), mean(c.m_compute_s, c.epochs)},
      {"net", mean(b.m_net_s, b.epochs), mean(c.m_net_s, c.epochs)},
      {"stall", mean(b.m_stall_s, b.epochs), mean(c.m_stall_s, c.epochs)},
  };
  double worst = 0;
  for (const auto& r : rows) {
    BucketDelta d;
    d.bucket = r.name;
    d.baseline_s = r.base;
    d.current_s = r.cur;
    d.delta_s = r.cur - r.base;
    out.total_delta_s += d.delta_s;
    // Dominant = the bucket that grew the most; ties break toward the
    // earlier (more fundamental) bucket in the fixed order.
    if (out.dominant.empty() || d.delta_s > worst) {
      out.dominant = d.bucket;
      worst = d.delta_s;
    }
    out.buckets.push_back(std::move(d));
  }
  return out;
}

void attribute_regressions(const RunReport& baseline, const RunReport& current,
                           CompareResult& result) {
  for (const Regression& reg : result.regressions) {
    if (reg.axis != "sec_per_epoch" && reg.axis != "modeled_total_seconds" &&
        reg.axis != "ttc_10pct" && reg.axis != "ttc_1pct") {
      continue;
    }
    const Entry* base = baseline.find(reg.label);
    const Entry* cur = current.find(reg.label);
    if (base == nullptr || cur == nullptr) continue;
    const AttributionDiff diff = diff_attribution(*base, *cur);
    result.notes.push_back("[" + reg.label + "] " + reg.axis + ": " +
                           diff.describe());
  }
}

}  // namespace parsgd::report
