#include "sgd/sync_engine.hpp"

#include <vector>

#include "hwmodel/cpu_model.hpp"
#include "linalg/cpu_backend.hpp"
#include "linalg/gpu_backend.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/step_path.hpp"

namespace parsgd {

SyncEngine::SyncEngine(const Model& model, const TrainData& data,
                       const ScaleContext& scale,
                       const SyncEngineOptions& opts)
    : model_(model), linear_(dynamic_cast<const LinearModel*>(&model)),
      data_(data), scale_(scale), opts_(opts),
      traj_backend_(linalg::CpuBackendOptions{
          .pool = opts.pool, .deterministic = opts.deterministic}) {
  if (opts_.arch == Arch::kGpu) {
    device_ = std::make_unique<gpusim::Device>(paper_gpu());
  }
  PARSGD_CHECK(!opts_.use_dense || data_.has_dense(),
               "dense layout requested but no dense materialization");
  traj_backend_.set_sink(&traj_cost_);
}

SyncEngine::~SyncEngine() = default;

std::string SyncEngine::name() const {
  return std::string("sync/") + to_string(opts_.arch) +
         (opts_.use_dense ? "/dense" : "/sparse");
}

void SyncEngine::instrument(std::span<const real_t> w_sample) {
  // One epoch on a throwaway parameter copy through the architecture's
  // backend. Primitive costs depend only on shapes/sparsity, so one epoch
  // is representative for all of them.
  std::vector<real_t> scratch(w_sample.begin(), w_sample.end());
  const SyncCalibration& cal = opts_.calibration;
  CostBreakdown cost;
  if (opts_.arch == Arch::kGpu) {
    linalg::GpuBackend backend(*device_);
    backend.set_sink(&cost);
    model_.sync_epoch(backend, data_, opts_.use_dense, real_t(0), scratch);
    device_->reset_stats();
    cost_paper_ = cost.scaled(scale_.n_scale);
    cost_paper_.kernel_launches = cost.kernel_launches;  // per-epoch const
    const double efficiency = opts_.use_dense ? cal.gpu_dense_efficiency
                                              : cal.gpu_sparse_efficiency;
    // Efficiency discounts the kernel work; the per-launch overhead and
    // the per-example dispatch fee are empirical constants on top.
    const GpuSpec& gspec = device_->spec();
    const double hz = gspec.clock_ghz * 1e9;
    const double kernel_secs = cost.gpu_cycles * scale_.n_scale / hz;
    const double launch_secs =
        cost.kernel_launches * gspec.cycles_kernel_launch / hz;
    epoch_seconds_ = kernel_secs / efficiency + launch_secs +
                     cal.dispatch_us_gpu * 1e-6 * scale_.paper_n;
  } else {
    const int threads = opts_.arch == Arch::kCpuSeq ? 1 : opts_.cpu_threads;
    linalg::CpuBackendOptions bopts;
    bopts.threads = threads;
    bopts.gemm_parallel_threshold = opts_.gemm_parallel_threshold;
    bopts.pool = opts_.pool;
    bopts.deterministic = opts_.deterministic;
    linalg::CpuBackend backend(bopts);
    backend.set_sink(&cost);
    model_.sync_epoch(backend, data_, opts_.use_dense, real_t(0), scratch);
    // The ViennaCL threshold effect (Fig. 6): GEMMs whose result stayed
    // below the parallel threshold ran single-threaded. Charge those flops
    // at 1-thread speed and the remainder at `threads` speed.
    cost_paper_ = cost.scaled(scale_.n_scale);
    // Sequential reference kernels may be scalar (linear-task
    // calibration); the OpenMP kernels vectorize.
    const bool vectorized = threads > 1 || cal.vectorized_seq;
    const double serial_flops = backend.gemm_serial_flops();
    double model_secs;
    if (threads > 1 && serial_flops > 0) {
      // Fig. 6: GEMMs under the parallel threshold ran single-threaded.
      CostBreakdown serial_part;
      serial_part.flops = serial_flops;
      CostBreakdown rest = cost;
      rest.flops -= serial_flops;
      model_secs =
          cpu_epoch_seconds(paper_cpu(), rest, scale_, threads, vectorized) +
          cpu_epoch_seconds(paper_cpu(), serial_part, scale_, 1, true);
    } else {
      model_secs =
          cpu_epoch_seconds(paper_cpu(), cost, scale_, threads, vectorized);
    }
    // Efficiency discounts kernel work; fork/join overhead is an
    // empirical constant and stays outside the division.
    const double fj = cost.kernel_launches *
                      CpuModel(paper_cpu()).fork_join_seconds(threads);
    model_secs = (model_secs - fj) / cal.cpu_kernel_efficiency + fj;
    if (threads == 1) {
      model_secs += cal.seq_epoch_overhead_s;
      model_secs += cal.dispatch_us_seq * 1e-6 * scale_.paper_n;
    } else {
      model_secs += cal.dispatch_us_par * 1e-6 * scale_.paper_n;
    }
    epoch_seconds_ = model_secs;
  }
}

double SyncEngine::epoch_seconds(std::span<const real_t> w_sample) {
  if (!epoch_seconds_) instrument(w_sample);
  return *epoch_seconds_;
}

void SyncEngine::set_telemetry(
    std::shared_ptr<telemetry::TelemetrySession> s) {
  Engine::set_telemetry(std::move(s));
  if (device_ != nullptr) device_->set_telemetry(telemetry_.get());
}

ThreadPool* SyncEngine::pool() const {
  return opts_.pool != nullptr ? opts_.pool : &ThreadPool::global();
}

double SyncEngine::run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) {
  return epoch(w, alpha, rng, nullptr);
}

double SyncEngine::run_epoch_carried(std::span<real_t> w, real_t alpha,
                                     Rng& rng, EpochCarry& carry) {
  const bool stage = opts_.minibatch == 0 && linear_ != nullptr;
  if (!stage) {
    carry.settle(w);
    carry.clear();
  }
  return epoch(w, alpha, rng, stage ? &carry : nullptr);
}

double SyncEngine::epoch(std::span<real_t> w, real_t alpha, Rng& rng,
                         EpochCarry* carry) {
  const double secs = epoch_seconds(w);
  ThreadPool& epoch_pool = *pool();
  // Session attached per epoch so per-worker chunk spans and pool.*
  // counters flow while this engine runs; detached (off) runs never
  // touch the pool's telemetry seam.
  std::optional<PoolTelemetryGuard> tel_guard;
  if (telemetry_ != nullptr) tel_guard.emplace(epoch_pool, telemetry_.get());
  // Functional trajectory: deterministic CPU path, identical for every
  // architecture (synchronous statistical efficiency is arch-independent).
  if (opts_.minibatch == 0) {
    telemetry::Counter* c_updates =
        telemetry_ != nullptr && telemetry_->metrics_enabled()
            ? &telemetry_->metrics().counter("sync.updates")
            : nullptr;
    traj_cost_.reset();
    if (carry != nullptr) {
      linear_->sync_epoch(traj_backend_, data_, opts_.use_dense, alpha, w,
                          carry, &epoch_pool);
    } else {
      model_.sync_epoch(traj_backend_, data_, opts_.use_dense, alpha, w);
    }
    if (c_updates != nullptr) c_updates->inc();
  } else {
    // Synchronized mini-batch updates, shuffled batch order per epoch,
    // through the shared step-path runner (DESIGN.md §15): a dataflow
    // task graph with no per-batch barrier.
    MinibatchEpochOptions mo;
    mo.minibatch = opts_.minibatch;
    mo.use_dense = opts_.use_dense;
    mo.pool = opts_.pool;
    run_minibatch_epoch(model_, data_, alpha, w, rng, telemetry_.get(), mo);
  }
  return secs;
}

}  // namespace parsgd
