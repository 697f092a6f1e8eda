// perfbench — host cost of regenerating the paper's Table II / III rows,
// end to end and layer by layer (metrics and workloads: README.md here).
//
// One invocation runs one workload in one process: a closed loop over the
// workload's table rows on the calling thread plus an injected pool of
// nproc-1 workers, in the committed quick configuration with det=on. It
// writes the raw measurements and every row's modeled outputs as JSON;
// run.py checks the outputs and prints the benchmark result.
//
//   perfbench --workload=sync_lr|async_lr|async_mlp --seed=N --seconds=S
//             --trace=0|1 --out=FILE [--spans=FILE]
//
// --trace=0 times the rows with telemetry off. --trace=1 runs one untimed
// pass with telemetry off, then the same rows again under a trace-mode
// TelemetrySession and the benchmark's own spans, then replays the calls
// each layer makes on those rows to time the layer in isolation.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/clock.hpp"
#include "kernel/kernels.hpp"
#include "linalg/cpu_backend.hpp"
#include "parallel/thread_pool.hpp"
#include "report/report.hpp"
#include "sgd/spec.hpp"

using namespace parsgd;

namespace {

struct Workload {
  const char* name;
  Task task;
  Update update;
};

constexpr Workload kWorkloads[] = {
    {"sync_lr", Task::kLr, Update::kSync},
    {"async_lr", Task::kLr, Update::kAsync},
    {"async_mlp", Task::kMlp, Update::kAsync},
};

/// Column order of bench_table2_sync / bench_table3_async.
constexpr Arch kArchs[] = {Arch::kGpu, Arch::kCpuSeq, Arch::kCpuPar};

/// Dataset generations before the first pass; setup_s is the median over
/// them and every later pass's own generation.
constexpr int kSetupReps = 5;

/// Timed passes per run at least. run.py reports the fastest: load from
/// outside the process only ever adds time, and on a shared machine one of
/// two passes is often disturbed.
constexpr std::size_t kMinPasses = 2;

/// A pass is disturbed when the host stole more than this share of the
/// machine's CPU time during it. A run whose passes were all disturbed
/// adds passes, up to 2 x --seconds of them, to find an undisturbed one.
constexpr double kStealLimit = 0.02;

/// Simulated statistics: identical for every pool size and host, so
/// run.py checks them against the reference instead of timing them.
const char* const kSimCounters[] = {
    "async.updates",       "async.write_conflicts", "async.stale_units",
    "gpu.kernel_launches", "gpu.mem_transactions",  "gpu.atomic_conflicts",
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// CPU steal ticks of the whole machine so far (/proc/stat: time its
/// virtual CPUs waited for a physical one); 0 where unavailable.
double steal_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  is >> cpu;
  for (double& f : fields) is >> f;
  return is ? fields[7] : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// FNV-1a over the bit patterns of a loss trajectory, so a reference can
/// pin a whole trajectory in one short string.
std::string digest(const std::vector<double>& xs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : xs) {
    unsigned char b[sizeof(double)];
    std::memcpy(b, &x, sizeof(double));
    for (const unsigned char c : b) {
      h = (h ^ c) * 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The benchmark's own spans around its calls into each layer. Kept in
/// memory; written once, after every measurement, in Chrome trace format
/// with each span's parent as an argument.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Spans* s, std::string name) : s_(s) {
      if (s_ != nullptr) i_ = s_->open(std::move(name));
    }
    ~Scope() {
      if (s_ != nullptr) s_->close(i_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    std::size_t i_ = 0;
  };

  Scope scope(std::string name) {
    return Scope(on_ ? this : nullptr, std::move(name));
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    long parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::size_t open(std::string name) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back({std::move(name), parent, monotonic_ns(), 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t i) {
    spans_[i].end_ns = monotonic_ns();
    stack_.pop_back();
  }

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// One configuration's modeled outputs (or the error it threw).
struct Row {
  report::Entry entry;
  std::string loss_digest;
  std::string error;  ///< non-empty: config_result threw
};

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  double steal_share = 0;  ///< of the machine's CPU time, see kStealLimit
  std::vector<Row> rows;
  std::map<std::string, double> row_s;  ///< dataset -> host seconds
};

std::string label_of(const Workload& w, const std::string& ds, Arch arch) {
  return std::string(to_string(w.task)) + "/" + ds + "/" +
         to_string(w.update) + "/" + to_string(arch);
}

/// The Study that runs a dataset's row.
using StudyOf = std::function<Study&(const std::string& dataset)>;

/// Generates every row's dataset (the timed set-up); returns seconds.
double set_up(const StudyOf& study_of, const Workload& w, Spans& spans) {
  const auto span = spans.scope("data.generate");
  const double t0 = monotonic_seconds();
  for (const std::string& ds : benchutil::all_datasets()) {
    const auto s = spans.scope("data.generate." + ds);
    study_of(ds).dataset(w.task, ds);
  }
  return monotonic_seconds() - t0;
}

/// Every table row of the workload, in bench_table{2,3} order. With
/// `thread_per_row` each row runs on a fresh calling thread.
Pass run_rows(const StudyOf& study_of, const Workload& w, Spans& spans,
              bool thread_per_row) {
  Pass pass;
  const auto span = spans.scope("core.pass");
  const double c0 = cpu_seconds();
  const double s0 = steal_ticks();
  const double t0 = monotonic_seconds();
  for (const std::string& ds : benchutil::all_datasets()) {
    const auto row_span = spans.scope("core.row." + ds);
    const double r0 = monotonic_seconds();
    const auto row = [&] {
      for (const Arch arch : kArchs) {
        Row out;
        const std::string label = label_of(w, ds, arch);
        try {
          const auto s = spans.scope(std::string("core.config_result.") +
                                     to_string(arch));
          const ConfigResult r =
              study_of(ds).config_result(w.task, ds, w.update, arch);
          out.entry =
              benchutil::entry_from(label, w.task, ds, w.update, arch, r);
          if (r.run) out.loss_digest = digest(r.run->losses);
        } catch (const std::exception& e) {
          out.entry.label = label;
          out.error = e.what();
        }
        pass.rows.push_back(std::move(out));
      }
    };
    if (thread_per_row) {
      std::thread(row).join();
    } else {
      row();
    }
    pass.row_s[ds] = monotonic_seconds() - r0;
  }
  pass.wall_s = monotonic_seconds() - t0;
  pass.cpu_s = cpu_seconds() - c0;
  const double capacity = static_cast<double>(sysconf(_SC_CLK_TCK)) *
                          std::max(std::thread::hardware_concurrency(), 1u) *
                          pass.wall_s;
  pass.steal_share = (steal_ticks() - s0) / capacity;
  return pass;
}

/// The spec Study::config_result builds for (task, update, arch) on `ds`;
/// the Hogbatch batch and delay follow Study::group's formulas.
EngineSpec row_spec(const StudyOptions& o, Task task, const Dataset& ds,
                    bool dense, Update update, Arch arch) {
  EngineSpec s;
  s.update = update;
  s.arch = arch;
  s.layout = dense ? Layout::kDense : Layout::kSparse;
  s.deterministic = o.deterministic;
  if (task == Task::kMlp) {
    const double n = static_cast<double>(ds.n());
    const double paper_n = static_cast<double>(ds.profile.paper_n());
    const double batch_d = static_cast<double>(o.hogbatch_paper_batch);
    s.calibration = Calibration::kMlp;
    s.batch = std::max<std::size_t>(
        64, static_cast<std::size_t>(n * batch_d / paper_n + 0.5));
    if (update == Update::kAsync && arch != Arch::kGpu) {
      const double inflight =
          static_cast<double>(o.cpu_threads) * batch_d / paper_n;
      s.delay_units = std::max<std::size_t>(
          1, static_cast<std::size_t>(0.5 * inflight * n /
                                          static_cast<double>(s.batch) +
                                      0.5));
    }
  }
  return s;
}

/// Median seconds of `reps` calls of fn().
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = monotonic_seconds();
    fn();
    t.push_back(monotonic_seconds() - t0);
  }
  return median(std::move(t));
}

/// Nanoseconds per call of a microkernel: batches sized to >= 200 us,
/// median of 7 batches.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::size_t calls = 1;
  for (;;) {
    const double t0 = monotonic_seconds();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (monotonic_seconds() - t0 >= 2e-4 || calls >= (1u << 24)) break;
    calls *= 2;
  }
  const double per_batch = time_median(7, [&] {
    for (std::size_t i = 0; i < calls; ++i) fn();
  });
  return per_batch * 1e9 / static_cast<double>(calls);
}

/// Written with every timed result so no timed call is optimized away.
volatile double g_sink = 0;
void keep(double v) { g_sink = v; }

using Layers = std::map<std::string, double>;

/// Times each layer's public calls on the workload's own rows, one row at
/// a time. Per-call numbers are summed over the rows: the cost of one
/// call on every row.
void replay_layers(const StudyOf& study_of, const Workload& w,
                   const StudyOptions& opts, ThreadPool& pool,
                   const Pass& traced, Spans& spans, Layers& out) {
  const auto replay_span = spans.scope("replay");
  // det=on runs the order-sensitive reductions on the scalar table; the
  // other kernels on the dispatched one (CpuBackend::set_force_scalar).
  const kernel::Kernels& simd = kernel::active_kernels();
  const kernel::Kernels& reduce =
      opts.deterministic ? kernel::scalar_kernels() : simd;
  std::map<std::string, double> alpha;
  for (const Row& r : traced.rows) alpha[r.entry.label] = r.entry.alpha;

  for (const char* name : {"sgd.first_epoch_s.", "sgd.epoch_probe_s."}) {
    for (const Arch arch : kArchs) out[name + std::string(to_string(arch))] = 0;
  }
  for (const char* name :
       {"models.dataset_loss_s", "linalg.spmv_t_s", "linalg.spmv_s",
        "linalg.gemv_t_s", "linalg.gemm_s", "kernel.dot_ns", "kernel.axpy_ns",
        "kernel.spmv_row_ns", "kernel.gemm_tile_ns"}) {
    out[name] = 0;
  }

  for (const std::string& ds_name : benchutil::all_datasets()) {
    const auto row_span = spans.scope("replay." + ds_name);
    Study& study = study_of(ds_name);
    const Dataset& ds = study.dataset(w.task, ds_name);
    const Model& model = study.model(w.task, ds_name);
    const bool dense = Study::use_dense(w.task, ds);
    EngineContext ctx = make_engine_context(
        ds, model, dense ? Layout::kDense : Layout::kSparse);
    ctx.pool = &pool;
    ctx.seed = opts.seed;
    ctx.cpu_threads = opts.cpu_threads;
    const std::vector<real_t> w0 = model.init_params(opts.seed ^ 0xabcdef);

    // sgd: lazy per-engine cost (first epoch of a fresh engine minus a
    // steady epoch) and the epoch_seconds probe, per architecture.
    for (const Arch arch : kArchs) {
      const std::string a = to_string(arch);
      const EngineSpec spec = row_spec(opts, w.task, ds, dense, w.update, arch);
      {
        const auto s = spans.scope("sgd.epoch_probe." + a);
        const std::unique_ptr<Engine> engine = make_engine(spec, ctx);
        const double t0 = monotonic_seconds();
        keep(engine->epoch_seconds(w0));
        out["sgd.epoch_probe_s." + a] += monotonic_seconds() - t0;
      }
      const auto s = spans.scope("sgd.first_epoch." + a);
      const std::unique_ptr<Engine> engine = make_engine(spec, ctx);
      const real_t step =
          static_cast<real_t>(alpha[label_of(w, ds_name, arch)]);
      std::vector<real_t> wv = w0;
      Rng rng(opts.seed);
      const double t0 = monotonic_seconds();
      keep(engine->run_epoch(wv, step, rng));
      const double first = monotonic_seconds() - t0;
      const double steady =
          time_median(3, [&] { keep(engine->run_epoch(wv, step, rng)); });
      out["sgd.first_epoch_s." + a] += first - steady;
    }

    // models: the per-epoch loss evaluation run_training makes.
    {
      const auto s = spans.scope("models.dataset_loss");
      out["models.dataset_loss_s"] += time_median(
          3, [&] { keep(model.dataset_loss(ctx.data, w0, dense)); });
    }

    // linalg: the CPU backend's primitives on this row's matrix.
    {
      const auto s = spans.scope("linalg");
      linalg::CpuBackendOptions bo;
      bo.threads = opts.cpu_threads;
      bo.pool = &pool;
      bo.deterministic = opts.deterministic;
      linalg::CpuBackend backend(bo);
      CostBreakdown sink;
      backend.set_sink(&sink);
      const std::size_t n = ds.n(), d = ds.d();
      std::vector<real_t> xd(d, real_t(0.01)), xn(n, real_t(0.5));
      std::vector<real_t> yd(d), yn(n);
      out["linalg.spmv_s"] +=
          time_median(5, [&] { backend.spmv(ds.x, xd, yn, false); });
      out["linalg.spmv_t_s"] +=
          time_median(5, [&] { backend.spmv(ds.x, xn, yd, true); });
      if (ds.x_dense) {
        out["linalg.gemv_t_s"] += time_median(
            5, [&] { backend.gemv(*ds.x_dense, xn, yd, true); });
        constexpr std::size_t kCols = 64;
        const DenseMatrix b(d, kCols, real_t(0.01));
        DenseMatrix c(n, kCols);
        out["linalg.gemm_s"] += time_median(
            5, [&] { backend.gemm(*ds.x_dense, b, c, false, false); });
      }
    }

    // kernel: one call at this row's per-example length (mean nnz), the
    // length a Hogwild update or a CSR row product works on.
    {
      const auto s = spans.scope("kernel");
      const std::size_t len = std::max<std::size_t>(
          1, (ds.x.nnz() + ds.n() / 2) / std::max<std::size_t>(ds.n(), 1));
      std::vector<real_t> a(len, real_t(0.5)), b(len, real_t(0.25));
      out["kernel.dot_ns"] += ns_per_call(
          [&] { keep(reduce.dot(a.data(), b.data(), len)); });
      out["kernel.axpy_ns"] += ns_per_call(
          [&] { simd.axpy(real_t(1e-3), a.data(), b.data(), len); });
      const std::vector<real_t> x(ds.d(), real_t(0.01));
      std::size_t r = 0;
      out["kernel.spmv_row_ns"] += ns_per_call([&] {
        const auto rv = ds.x.row(r);
        keep(reduce.spmv_row(rv.val.data(), rv.idx.data(), rv.nnz(),
                             x.data()));
        r = r + 1 == ds.n() ? 0 : r + 1;
      });
      // The blocked GEMM's micro-tile shape (cpu_backend.cpp kGemmKc x
      // kGemmNc), clipped to this row's width.
      const std::size_t kc = std::min<std::size_t>(ds.d(), 128), nc = 64;
      std::vector<real_t> ta(kc, real_t(0.5)), tb(kc * nc, real_t(0.25));
      std::vector<double> acc(nc, 0.0);
      out["kernel.gemm_tile_ns"] += ns_per_call([&] {
        simd.gemm_tile(ta.data(), tb.data(), nc, acc.data(), kc, nc);
      });
      keep(acc[0]);
    }
  }
}

/// Per-layer numbers read from the program's own telemetry: the epoch
/// spans run_training records and the pool.* / graph.* / async.* / gpu.*
/// counters.
void harvest_session(const telemetry::TelemetrySession& session, Layers& out,
                     std::map<std::string, double>& sim) {
  std::vector<double> epochs;
  for (const telemetry::TraceEvent& ev : session.trace().events()) {
    if (!ev.instant && ev.name == "epoch") {
      epochs.push_back(static_cast<double>(ev.dur_ns) * 1e-9);
    }
  }
  double epoch_total = 0;
  for (const double e : epochs) epoch_total += e;
  out["sgd.epochs"] = static_cast<double>(epochs.size());
  out["sgd.epoch_s.p50"] = quantile(epochs, 0.50);
  out["sgd.epoch_s.p99"] = quantile(epochs, 0.99);
  out["trace.dropped_spans"] = static_cast<double>(session.trace().dropped());

  const telemetry::MetricsSnapshot snap = session.snapshot();
  const auto value = [&](const char* name) {
    const telemetry::MetricSample* s = snap.find(name);
    return s == nullptr ? 0.0 : s->value;
  };
  const auto hist = [&](const char* name, double telemetry::MetricSample::*q) {
    const telemetry::MetricSample* s = snap.find(name);
    return s == nullptr ? 0.0 : s->*q;
  };
  using S = telemetry::MetricSample;
  out["parallel.pool.jobs"] = value("pool.jobs");
  out["parallel.pool.chunks"] = value("pool.chunks");
  out["parallel.pool.parks"] = value("pool.parks");
  out["parallel.pool.wakeups"] = value("pool.wakeups");
  out["parallel.pool.queue_wait_ns.p50"] = hist("pool.queue_wait_ns", &S::p50);
  out["parallel.pool.queue_wait_ns.p99"] = hist("pool.queue_wait_ns", &S::p99);
  out["parallel.graph.runs"] = value("graph.runs");
  out["parallel.graph.tasks"] = value("graph.tasks");
  out["parallel.graph.steals"] = value("graph.steals");
  out["parallel.graph.ready_wait_ns.p50"] =
      hist("graph.ready_wait_ns", &S::p50);

  const double updates = value("async.updates");
  // Every epoch of an async workload runs on an async engine; the epoch
  // span also covers that epoch's loss evaluation.
  out["asyncsim.update_ns"] = updates > 0 ? epoch_total * 1e9 / updates : 0;
  out["asyncsim.updates"] = updates;
  out["asyncsim.write_conflicts"] = value("async.write_conflicts");
  out["asyncsim.stale_units"] = value("async.stale_units");
  out["gpusim.kernel_launches"] = value("gpu.kernel_launches");
  out["gpusim.mem_transactions"] = value("gpu.mem_transactions");
  out["gpusim.atomic_conflicts"] = value("gpu.atomic_conflicts");
  for (const char* name : kSimCounters) sim[name] = value(name);
}

// ---- output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num_map(const std::map<std::string, double>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    o += (o.size() > 1 ? ", " : "") + str(k) + ": " + num(v);
  }
  return o + "}";
}

std::string row_json(const Row& r) {
  const report::Axes& a = r.entry.axes;
  return "{\"label\": " + str(r.entry.label) + ", \"error\": " + str(r.error) +
         ", \"alpha\": " + num(r.entry.alpha) +
         ", \"diverged\": " + (r.entry.diverged ? "true" : "false") +
         ", \"loss_digest\": " + str(r.loss_digest) +
         ", \"axes\": {\"sec_per_epoch\": " + num(a.sec_per_epoch) +
         ", \"epochs_to_10pct\": " + num(a.epochs_to_10pct) +
         ", \"epochs_to_1pct\": " + num(a.epochs_to_1pct) +
         ", \"ttc_10pct\": " + num(a.ttc_10pct) +
         ", \"ttc_1pct\": " + num(a.ttc_1pct) +
         ", \"modeled_total_seconds\": " + num(a.modeled_total_seconds) +
         "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string wname = cli.get("workload", "");
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (wname == c.name) w = &c;
  }
  const std::string out_path = cli.get("out", "");
  if (w == nullptr || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=sync_lr|async_lr|async_mlp "
                 "--seed=N --seconds=S --trace=0|1 --out=FILE "
                 "[--spans=FILE]\n");
    return 2;
  }
  const bool traced = cli.get_int("trace", 0) != 0;
  const double seconds = cli.get_double("seconds", 10.0);

  // The committed quick configuration of the gated Table II/III benches
  // (bench/CMakeLists.txt: --quick --det), at the requested seed.
  const char* quick_argv[] = {"perfbench", "--quick", "--det"};
  StudyOptions opts =
      benchutil::study_options_from_cli(Cli(3, const_cast<char**>(quick_argv)));
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::size_t nproc =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  ThreadPool pool(std::max<std::size_t>(nproc - 1, 1));
  opts.pool = &pool;

  Spans spans(traced);
  std::vector<double> setups;
  std::vector<Pass> passes;
  std::unique_ptr<Study> study;
  const StudyOf shared = [&](const std::string&) -> Study& { return *study; };
  for (int i = 0; i < kSetupReps; ++i) {
    study = std::make_unique<Study>(opts);
    setups.push_back(set_up(shared, *w, spans));
  }

  Layers layers;
  std::map<std::string, double> sim;
  if (!traced) {
    // Closed loop: whole passes (fresh Study, fresh datasets), at least
    // two, until about `seconds` of rows have been timed: stop once another
    // pass would end more than half a pass past the target.
    double measured = 0;
    for (;;) {
      passes.push_back(run_rows(shared, *w, spans, false));
      const double last = passes.back().wall_s;
      measured += last;
      const bool enough = passes.size() >= kMinPasses &&
                          measured + 0.5 * last >= seconds;
      const bool undisturbed =
          std::any_of(passes.begin(), passes.end(), [](const Pass& p) {
            return p.steal_share < kStealLimit;
          });
      if (enough && (undisturbed || measured + last > 2 * seconds)) break;
      study = std::make_unique<Study>(opts);
      setups.push_back(set_up(shared, *w, spans));
    }
  } else {
    passes.push_back(run_rows(shared, *w, spans, false));  // tracing off
    study.reset();
    // The traced pass gives each row its own Study, pool (same size) and
    // calling thread. The session's trace recorder keeps at most 65536
    // events per thread (TraceRecorder), and a whole sync_lr pass records
    // ~250k pool chunk spans, so rows sharing threads would drop spans,
    // run_training's epoch spans among them.
    auto session = std::make_shared<telemetry::TelemetrySession>(
        telemetry::TelemetryMode::kTrace);
    std::vector<std::unique_ptr<ThreadPool>> row_pools;
    std::map<std::string, std::unique_ptr<Study>> row_studies;
    for (const std::string& ds : benchutil::all_datasets()) {
      row_pools.push_back(std::make_unique<ThreadPool>(pool.size()));
      StudyOptions o = opts;
      o.pool = row_pools.back().get();
      o.telemetry = session;
      row_studies[ds] = std::make_unique<Study>(o);
    }
    const StudyOf per_row = [&](const std::string& ds) -> Study& {
      return *row_studies.at(ds);
    };
    setups.push_back(set_up(per_row, *w, spans));
    passes.push_back(run_rows(per_row, *w, spans, true));
    const Pass& t = passes.back();
    layers["data.generate_s"] = median(setups);
    for (const auto& [ds, secs] : t.row_s) layers["core.row_s." + ds] = secs;
    layers["trace.overhead_s"] = t.wall_s - passes.front().wall_s;
    harvest_session(*session, layers, sim);
    replay_layers(per_row, *w, opts, pool, t, spans, layers);
    row_studies.clear();  // before the pools they run on
  }
  const double rss = peak_rss_mb();

  if (cli.has("spans") && traced) spans.write(cli.get("spans", ""));

  const report::BuildInfo& bi = report::build_info();
  std::ofstream os(out_path);
  os << "{\"workload\": " << str(w->name) << ", \"seed\": " << opts.seed
     << ",\n \"provenance\": {\"pool_workers\": " << pool.size()
     << ", \"nproc\": " << nproc
     << ", \"kernel_dispatch\": " << str(kernel::dispatch_summary())
     << ", \"build_type\": " << str(bi.build_type)
     << ", \"compiler\": " << str(bi.compiler) << ", \"seed\": " << opts.seed
     << "},\n \"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    os << (i ? ", " : "") << num(setups[i]);
  }
  os << "],\n \"peak_rss_mb\": " << num(rss) << ",\n \"passes\": [";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& ps = passes[p];
    os << (p ? "," : "") << "\n  {\"traced\": "
       << (traced && p + 1 == passes.size() ? "true" : "false")
       << ", \"wall_s\": " << num(ps.wall_s) << ", \"cpu_s\": " << num(ps.cpu_s)
       << ", \"steal_share\": " << num(ps.steal_share)
       << ", \"row_s\": " << num_map(ps.row_s) << ", \"rows\": [";
    for (std::size_t r = 0; r < ps.rows.size(); ++r) {
      os << (r ? "," : "") << "\n    " << row_json(ps.rows[r]);
    }
    os << "]}";
  }
  os << "],\n \"layers\": " << num_map(layers)
     << ",\n \"sim_counters\": " << num_map(sim) << "}\n";
  os.close();
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
