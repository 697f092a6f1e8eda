#include "core/study.hpp"

#include <algorithm>
#include <limits>

#include "asyncsim/gpu_hogwild.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "data/mlp_view.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

const char* to_string(Task t) {
  switch (t) {
    case Task::kLr: return "LR";
    case Task::kSvm: return "SVM";
    case Task::kMlp: return "MLP";
  }
  return "?";
}

bool Study::use_dense(Task task, const Dataset& ds) {
  if (task == Task::kMlp) return ds.x_dense.has_value();
  return ds.profile.dense && ds.x_dense.has_value();
}

// One (task, dataset) group: data, model, the four semantic runs, and the
// per-architecture hardware-efficiency numbers.
struct Study::Group {
  Task task;
  std::string name;
  const Dataset* data = nullptr;  ///< LR/SVM: base set; MLP: mlp_data
  std::unique_ptr<Dataset> mlp_data;      ///< MLP: grouped view
  std::unique_ptr<Model> model;
  std::vector<real_t> w0;
  TrainData train;
  ScaleContext scale;
  EngineContext ctx;  ///< what make_engine builds from; views into the above
  bool dense = false;
  std::size_t hog_batch = 1;
  std::size_t hog_delay = 0;

  /// One GPU Hogwild warp replay for every async gpu engine of the group.
  HogwildReplayMemo hogwild_replay;

  std::optional<StepSearchResult> sync_run;
  std::map<Arch, double> sync_secs;
  std::map<Arch, StepSearchResult> async_runs;
  std::optional<double> optimum;

  const Dataset& dataset() const { return *data; }
};

Study::Study(const StudyOptions& opts) : opts_(opts) {}
Study::~Study() = default;

const Dataset& Study::base_dataset(const std::string& name) {
  auto it = base_.find(name);
  if (it == base_.end()) {
    GeneratorOptions g;
    g.seed = opts_.seed;
    g.scale = opts_.scale;
    g.pool = opts_.pool;
    auto ds = std::make_unique<Dataset>(generate_dataset(name, g));
    it = base_.emplace(name, std::move(ds)).first;
  }
  return *it->second;
}

Study::Group& Study::group(Task task, const std::string& name) {
  const std::string key = std::string(to_string(task)) + "/" + name;
  auto it = groups_.find(key);
  if (it != groups_.end()) return *it->second;

  auto g = std::make_unique<Group>();
  g->task = task;
  g->name = name;
  if (task == Task::kMlp) {
    // Keep at least ~2k examples: below that the 3k-parameter MLPs
    // memorize the training set to near-zero loss, which no paper-scale
    // configuration exhibits and which makes relative convergence
    // thresholds degenerate.
    const double paper_n = static_cast<double>(
        profile_by_name(name).paper_n());
    // The grouped view densifies its own matrix, so the base skips its
    // dense copy (171 MB for real-sim's 2,048 x 20,958 base) and lives
    // only while the view is built.
    GeneratorOptions gen;
    gen.seed = opts_.seed;
    gen.scale = std::min(opts_.scale * opts_.mlp_extra_scale,
                         std::max(1.0, paper_n / 2048.0));
    gen.dense_budget_bytes = 0;
    gen.pool = opts_.pool;
    g->mlp_data = std::make_unique<Dataset>(
        make_mlp_dataset(generate_dataset(name, gen), opts_.pool));
    g->data = g->mlp_data.get();
    g->model = std::make_unique<Mlp>(g->data->profile.mlp_architecture());
    // Mini-batch for the scaled run: at least 64 examples so per-update
    // gradient noise stays in the same regime as the paper's B=512; the
    // matching staleness is injected via hog_delay below, which preserves
    // the paper's in-flight *fraction* of an epoch
    // (56 workers x 512 / N_paper).
    const double n_scaled = static_cast<double>(g->data->n());
    g->hog_batch = std::max<std::size_t>(
        64, static_cast<std::size_t>(
                n_scaled * static_cast<double>(opts_.hogbatch_paper_batch) /
                    paper_n +
                0.5));
    const double inflight_fraction =
        static_cast<double>(opts_.cpu_threads) *
        static_cast<double>(opts_.hogbatch_paper_batch) / paper_n;
    // Divide by two: a unit starting mid-stream misses the in-flight
    // units *partially* — the expected effective delay is half the
    // worst-case in-flight span.
    g->hog_delay = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               0.5 * inflight_fraction * n_scaled /
                   static_cast<double>(g->hog_batch) +
               0.5));
  } else {
    g->data = &base_dataset(name);
    const std::size_t d = g->data->d();
    if (task == Task::kLr) {
      g->model = std::make_unique<LogisticRegression>(d);
    } else {
      g->model = std::make_unique<LinearSvm>(d);
    }
  }
  const Dataset& ds = g->dataset();
  g->dense = use_dense(task, ds);
  g->train.sparse = &ds.x;
  g->train.dense = ds.x_dense ? &*ds.x_dense : nullptr;
  g->train.y = ds.y;
  g->w0 = g->model->init_params(opts_.seed ^ 0xabcdef);
  g->scale = make_scale_context(ds, *g->model, g->dense);
  g->ctx.model = g->model.get();
  g->ctx.data = g->train;
  g->ctx.scale = g->scale;
  g->ctx.cpu_threads = opts_.cpu_threads;
  g->ctx.pool = opts_.pool;
  g->ctx.seed = opts_.seed;
  g->ctx.telemetry = opts_.telemetry;
  g->ctx.hogwild_replay = &g->hogwild_replay;

  it = groups_.emplace(key, std::move(g)).first;
  return *it->second;
}

const Dataset& Study::dataset(Task task, const std::string& name) {
  return group(task, name).dataset();
}

const Model& Study::model(Task task, const std::string& name) {
  return *group(task, name).model;
}

namespace {

StepSearchOptions make_search_options(const StudyOptions& study, Task task,
                                      bool dense, std::size_t full_epochs) {
  StepSearchOptions s;
  s.grid = study.step_grid;
  s.probe_epochs = study.probe_epochs;
  s.keep_candidates = study.keep_candidates;
  s.full_epochs = full_epochs;
  s.train.prefer_dense = dense;
  s.train.max_epochs = full_epochs;
  s.train.heartbeat_seconds = study.heartbeat_seconds;
  (void)task;
  return s;
}

/// The study's spec for one cube configuration: layout follows the data,
/// MLP tasks switch to the dispatch-fee calibration with Hogbatch /
/// mini-batch updates, and async CPU Hogbatch carries the gradient delay
/// that preserves the paper's in-flight fraction (see Study::group).
EngineSpec study_spec(Task task, Update update, Arch arch, bool dense,
                      std::size_t hog_batch, std::size_t hog_delay,
                      bool deterministic) {
  EngineSpec s;
  s.update = update;
  s.arch = arch;
  s.layout = dense ? Layout::kDense : Layout::kSparse;
  s.deterministic = deterministic;
  if (task == Task::kMlp) {
    s.calibration = Calibration::kMlp;
    s.batch = hog_batch;
    if (update == Update::kAsync && arch != Arch::kGpu) {
      s.delay_units = hog_delay;
    }
  }
  return s;
}

}  // namespace

ConfigResult Study::config_result(Task task, const std::string& name,
                                  Update update, Arch arch) {
  Group& g = group(task, name);
  const std::size_t full_epochs =
      task == Task::kMlp
          ? (update == Update::kSync ? opts_.full_epochs_mlp_sync
                                     : opts_.full_epochs_mlp)
          : (update == Update::kSync ? opts_.full_epochs_linear_sync
                                     : opts_.full_epochs_linear);
  const StepSearchOptions sopts =
      make_search_options(opts_, task, g.dense, full_epochs);

  // One step search per spec: every engine comes out of the factory.
  // The async searches of a group run as one batch on the pool: asyncsim
  // and the warp replay are serial by design, so the pool is otherwise
  // idle. Sync engines are data-parallel inside each epoch and already
  // use it, so their search stays serial (and keeps one engine's buffers
  // live at a time).
  auto search_of = [&](const EngineSpec& spec) {
    StepSearch search{{}, sopts};
    search.opts.label = format_spec(spec);  // names the cell in diagnostics
    search.make_run = [&g, spec, train = sopts.train](
                          double alpha, std::size_t epochs,
                          ThreadPool* executor) {
      TrainOptions t = train;
      t.max_epochs = epochs;
      EngineContext ctx = g.ctx;
      if (executor != nullptr) ctx.pool = executor;
      const std::unique_ptr<Engine> engine = make_engine(spec, ctx);
      return run_training(*engine, *g.model, g.train, g.w0,
                          static_cast<real_t>(alpha), t);
    };
    return search;
  };
  auto spec_of = [&](Update u, Arch a) {
    return study_spec(task, u, a, g.dense, g.hog_batch, g.hog_delay,
                      opts_.deterministic);
  };

  if (update == Update::kSync) {
    if (!g.sync_run) {
      PARSGD_INFO << "sync step search: " << to_string(task) << "/" << name;
      // Trajectory is arch-independent; search it once on cpu-seq.
      const StepSearch s = search_of(spec_of(Update::kSync, Arch::kCpuSeq));
      g.sync_run = search_step_size(s.make_run, s.opts);
    }
    if (!g.sync_secs.count(arch)) {
      g.sync_secs[arch] =
          make_engine(spec_of(Update::kSync, arch), g.ctx)
              ->epoch_seconds(g.w0);
    }
  } else if (!g.async_runs.count(arch)) {
    // Batch every async arch the group lacks: the requested one, then
    // registered_specs() order, as requesting them one by one would.
    std::vector<Arch> archs = {arch};
    for (const EngineSpec& s : registered_specs()) {
      if (s.update == Update::kAsync && s.arch != arch &&
          !g.async_runs.count(s.arch)) {
        archs.push_back(s.arch);
      }
    }
    std::vector<StepSearch> batch;
    for (const Arch a : archs) {
      PARSGD_INFO << "async step search: " << to_string(task) << "/" << name
                  << " on " << to_string(a);
      batch.push_back(search_of(spec_of(Update::kAsync, a)));
    }
    std::vector<StepSearchResult> found = search_step_sizes(
        batch, opts_.pool != nullptr ? opts_.pool : &ThreadPool::global());
    for (std::size_t i = 0; i < archs.size(); ++i) {
      g.async_runs.emplace(archs[i], std::move(found[i]));
    }
  }

  // Convergence reference: the update family's own optimum (see
  // Study::optimum(task, name, update) for why it is per-family).
  const double opt = optimum(task, name, update);

  ConfigResult res;
  if (update == Update::kSync) {
    res.alpha = g.sync_run->alpha;
    res.sec_per_epoch = g.sync_secs.at(arch);
    // Synthesize the per-arch run: same losses, this arch's epoch time.
    auto run = std::make_shared<RunResult>(g.sync_run->run);
    std::fill(run->epoch_seconds.begin(), run->epoch_seconds.end(),
              res.sec_per_epoch);
    res.diverged = run->diverged;
    res.run = run;
  } else {
    const StepSearchResult& sr = g.async_runs.at(arch);
    res.alpha = sr.alpha;
    auto run = std::make_shared<RunResult>(sr.run);
    res.sec_per_epoch = run->seconds_per_epoch();
    res.diverged = run->diverged;
    res.run = run;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    res.ttc[i] = convergence_point(*res.run, opt, kConvergenceLevels[i]);
  }
  return res;
}

double Study::optimum(Task task, const std::string& name) {
  return std::min(optimum(task, name, Update::kSync),
                  optimum(task, name, Update::kAsync));
}

double Study::optimum(Task task, const std::string& name, Update update) {
  Group& g = group(task, name);
  if (update == Update::kSync) {
    if (!g.sync_run) {
      config_result(task, name, Update::kSync, Arch::kCpuSeq);
    }
    // A failed search has no usable run (its empty run reports a best
    // loss of 0, which would poison the reference).
    if (g.sync_run->failed) {
      return std::numeric_limits<double>::infinity();
    }
    return std::min(g.sync_run->optimum, g.sync_run->run.best_loss());
  }
  // Async: every async architecture of the cube runs distinct semantics;
  // the family optimum spans them (and each search's full candidate set),
  // searched in registered_specs() order.
  double best = std::numeric_limits<double>::infinity();
  for (const EngineSpec& s : registered_specs()) {
    if (s.update != Update::kAsync) continue;
    if (!g.async_runs.count(s.arch)) {
      config_result(task, name, Update::kAsync, s.arch);
    }
    const StepSearchResult& sr = g.async_runs.at(s.arch);
    if (sr.failed) continue;  // fully-diverged grid: nothing usable
    best = std::min({best, sr.optimum, sr.run.best_loss()});
  }
  return best;
}

double Study::baseline_seconds(const BaselineProfile& profile, Task task,
                               const std::string& name, Arch arch) {
  Group& g = group(task, name);
  return baseline_epoch_seconds(profile, *g.model, g.train, g.scale, arch,
                                g.dense, g.w0);
}

}  // namespace parsgd
