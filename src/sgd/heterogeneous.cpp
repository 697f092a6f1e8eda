#include "sgd/heterogeneous.hpp"

#include <algorithm>
#include <optional>

#include "linalg/cpu_backend.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/step_path.hpp"

namespace parsgd {

namespace {

SyncEngineOptions device_options(const HeterogeneousOptions& opts,
                                 Arch arch) {
  SyncEngineOptions o;
  o.arch = arch;
  o.use_dense = opts.use_dense;
  o.cpu_threads = opts.cpu_threads;
  o.calibration = opts.calibration;
  o.pool = opts.pool;
  o.deterministic = opts.deterministic;
  return o;
}

}  // namespace

HeterogeneousEngine::HeterogeneousEngine(const Model& model,
                                         const TrainData& data,
                                         const ScaleContext& scale,
                                         const HeterogeneousOptions& opts)
    : model_(model), data_(data), scale_(scale), opts_(opts),
      gpu_engine_(model, data, scale, device_options(opts, Arch::kGpu)),
      cpu_engine_(model, data, scale,
                  device_options(opts, Arch::kCpuPar)),
      traj_backend_(linalg::CpuBackendOptions{
          .pool = opts.pool, .deterministic = opts.deterministic}) {
  PARSGD_CHECK(opts_.gpu_fraction <= 1.0);
  traj_backend_.set_sink(&traj_cost_);
}

void HeterogeneousEngine::instrument(std::span<const real_t> w_sample) {
  gpu_full_ = gpu_engine_.epoch_seconds(w_sample);
  cpu_full_ = cpu_engine_.epoch_seconds(w_sample);
  if (opts_.gpu_fraction >= 0) {
    phi_ = opts_.gpu_fraction;
  } else {
    // Gradient-pass time is proportional to the device's example share;
    // equalize: phi * gpu_full == (1 - phi) * cpu_full.
    phi_ = cpu_full_ / (gpu_full_ + cpu_full_);
  }
  const double combine =
      scale_.model_bytes * opts_.combine_seconds_per_byte;
  epoch_seconds_ = std::max(phi_ * gpu_full_, (1.0 - phi_) * cpu_full_) +
                   combine;
  cost_paper_ = gpu_engine_.last_cost();
  cost_paper_ += cpu_engine_.last_cost();
}

double HeterogeneousEngine::epoch_seconds(std::span<const real_t> w_sample) {
  if (!epoch_seconds_) instrument(w_sample);
  return *epoch_seconds_;
}

void HeterogeneousEngine::set_telemetry(
    std::shared_ptr<telemetry::TelemetrySession> s) {
  Engine::set_telemetry(std::move(s));
  gpu_engine_.set_telemetry(telemetry_);
  cpu_engine_.set_telemetry(telemetry_);
}

double HeterogeneousEngine::run_epoch(std::span<real_t> w, real_t alpha,
                                      Rng& rng) {
  if (!epoch_seconds_) instrument(w);
  faults_.begin_epoch(w);
  if (opts_.minibatch == 0) {
    // The combined gradient equals the single-device batch gradient, so
    // the functional trajectory is the plain synchronous epoch. Like the
    // sync engine, the epoch's one update can be dropped.
    if (faults_.drop_update()) {
      faults_.after_update(w);
      return *epoch_seconds_;
    }
    traj_cost_.reset();
    model_.sync_epoch(traj_backend_, data_, opts_.use_dense, alpha, w);
    faults_.after_update(w);
  } else {
    // Mini-batch schedule: same trajectory as the sync engine's minibatch
    // path (the split only changes where gradient work executes), run
    // through the shared step-path runner (DESIGN.md §15).
    ThreadPool& epoch_pool = *pool();
    ChunkHookGuard straggle_guard(epoch_pool, faults_);
    std::optional<PoolTelemetryGuard> tel_guard;
    if (telemetry_ != nullptr) {
      tel_guard.emplace(epoch_pool, telemetry_.get());
    }
    MinibatchEpochOptions mo;
    mo.minibatch = opts_.minibatch;
    mo.use_dense = opts_.use_dense;
    mo.pool = opts_.pool;
    run_minibatch_epoch(model_, data_, alpha, w, rng, faults_,
                        telemetry_.get(), mo);
  }
  return *epoch_seconds_;
}

}  // namespace parsgd
