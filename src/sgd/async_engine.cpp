#include "sgd/async_engine.hpp"

#include <optional>

#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {

AsyncSimOptions to_sim_options(const AsyncCpuOptions& opts) {
  AsyncSimOptions s;
  s.workers = opts.arch == Arch::kCpuSeq ? 1 : opts.threads;
  s.window_units = opts.window_units;
  s.batch = opts.batch;
  s.delay_units = opts.delay_units;
  s.prefer_dense = opts.prefer_dense;
  s.pool = opts.pool;
  return s;
}

}  // namespace

AsyncCpuEngine::AsyncCpuEngine(const Model& model, const TrainData& data,
                               const ScaleContext& scale,
                               const AsyncCpuOptions& opts)
    : model_(model), scale_(scale), opts_(opts),
      sim_(model, data, to_sim_options(opts)) {}

std::string AsyncCpuEngine::name() const {
  return std::string("async/") + to_string(opts_.arch) +
         (opts_.batch > 1 ? "/hogbatch" : "/hogwild");
}

ThreadPool* AsyncCpuEngine::pool() const {
  return opts_.pool != nullptr ? opts_.pool : &ThreadPool::global();
}

double AsyncCpuEngine::run_epoch(std::span<real_t> w, real_t alpha,
                                 Rng& rng) {
  ThreadPool& epoch_pool = *pool();
  std::optional<PoolTelemetryGuard> tel_guard;
  if (telemetry_ != nullptr) tel_guard.emplace(epoch_pool, telemetry_.get());
  const CostBreakdown cost = sim_.run_epoch(w, alpha, rng, telemetry_.get());
  cost_paper_ = cost.scaled(scale_.n_scale);
  const int threads = opts_.arch == Arch::kCpuSeq ? 1 : opts_.threads;
  // Incremental SGD and per-example backprop are scalar pointer-chasing
  // inner loops on narrow layers — they do not vectorize (this is also
  // why the paper's Hogbatch parallel speedup tops out near 23x, not 56x).
  const double dispatch_us =
      threads > 1 ? opts_.dispatch_us_par : opts_.dispatch_us_seq;
  return cpu_epoch_seconds(paper_cpu(), cost, scale_, threads,
                           /*vectorized=*/false) +
         dispatch_us * 1e-6 * scale_.paper_n;
}

AsyncGpuEngine::AsyncGpuEngine(const Model& model, const TrainData& data,
                               const ScaleContext& scale,
                               const AsyncGpuOptions& opts)
    : model_(model), scale_(scale), opts_(opts),
      n_units_((data.n() + std::max<std::size_t>(opts.batch, 1) - 1) /
               std::max<std::size_t>(opts.batch, 1)),
      device_(std::make_unique<gpusim::Device>(paper_gpu())) {
  if (opts_.batch > 1 || !model.sparse_updates()) {
    GpuHogbatchOptions h;
    h.batch = std::max<std::size_t>(opts_.batch, 1);
    h.prefer_dense = opts_.prefer_dense;
    hogbatch_ = std::make_unique<GpuHogbatch>(model, data, *device_, h);
  } else {
    GpuHogwildOptions h;
    h.prefer_dense = opts_.prefer_dense;
    h.concurrency_warps = opts_.concurrency_warps;
    h.replay_memo = opts_.replay_memo;
    hogwild_ = std::make_unique<GpuHogwild>(model, data, *device_, h);
  }
}

AsyncGpuEngine::~AsyncGpuEngine() = default;

void AsyncGpuEngine::set_telemetry(
    std::shared_ptr<telemetry::TelemetrySession> s) {
  Engine::set_telemetry(std::move(s));
  device_->set_telemetry(telemetry_.get());
}

std::string AsyncGpuEngine::name() const {
  return hogwild_ ? "async/gpu/hogwild" : "async/gpu/hogbatch";
}

double AsyncGpuEngine::run_epoch(std::span<real_t> w, real_t alpha,
                                 Rng& rng) {
  const CostBreakdown cost = hogwild_ ? hogwild_->run_epoch(w, alpha, rng)
                                      : hogbatch_->run_epoch(w, alpha, rng);
  if (telemetry_ != nullptr && telemetry_->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = telemetry_->metrics();
    reg.counter("async.updates").add(static_cast<double>(n_units_));
    reg.counter("async.write_conflicts").add(cost.write_conflicts);
  }
  cost_paper_ = cost.scaled(scale_.n_scale);
  cost_paper_.kernel_launches = cost.kernel_launches;
  if (opts_.dispatch_us > 0) {
    return opts_.dispatch_us * 1e-6 * scale_.paper_n;
  }
  return gpu_epoch_seconds(device_->spec(), cost, scale_);
}

}  // namespace parsgd
