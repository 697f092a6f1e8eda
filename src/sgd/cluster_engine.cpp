#include "sgd/cluster_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {

/// Operator-restart stall charged when a node dies under all-reduce (or
/// on a one-node cluster): the epoch blocks until the node is back. One
/// second is the deterministic stand-in for a health-check plus respawn
/// cycle.
constexpr double kNodeRestartStallSeconds = 1.0;

/// Updates applied cluster-wide during one push+pull round trip, from
/// modeled constants only (paper CPU spec, link model, dataset shape) —
/// deterministic for fixed (nodes, sync, seed) on any host. The
/// bounded-delay queue caps the result inside ClusterSim.
std::size_t derive_net_delay_units(const Model& model, const TrainData& data,
                                   const ClusterEngineOptions& opts,
                                   const NetModel& net, std::size_t nodes) {
  const std::size_t n = data.n();
  if (n == 0) return 0;
  double avg_k;
  if (opts.use_dense && data.has_dense()) {
    avg_k = static_cast<double>(data.d());
  } else {
    double nnz = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nnz += static_cast<double>(data.sparse->row_nnz(i));
    }
    avg_k = nnz / static_cast<double>(n);
  }
  const double batch_eff =
      static_cast<double>(std::max<std::size_t>(opts.batch, 1));
  const double unit_flops =
      batch_eff * (model.step_flops(static_cast<std::size_t>(avg_k)) +
                   kClusterLoopFlopsPerExample +
                   kClusterLoopFlopsPerNnz * avg_k);
  const CpuSpec& cpu = paper_cpu();
  // Hogwild-style units (batch 1) keep all node threads busy on
  // independent examples; batched units parallelize within the batch.
  const double threads_eff =
      opts.batch > 1
          ? std::min(static_cast<double>(opts.node_threads), batch_eff)
          : static_cast<double>(opts.node_threads);
  const double unit_secs =
      unit_flops / (cpu.clock_ghz * 1e9 * cpu.scalar_flops_per_cycle *
                    std::max(threads_eff, 1.0));
  double push, pull;
  if (opts.batch <= 1 && model.sparse_updates()) {
    push = avg_k * (sizeof(real_t) + sizeof(index_t));
    pull = avg_k * sizeof(real_t);
  } else {
    push = static_cast<double>(model.dim()) * sizeof(real_t);
    pull = push;
  }
  const double rtt =
      2.0 * net.latency_seconds() + (push + pull) / net.bytes_per_second();
  const double cluster_rate =
      static_cast<double>(nodes) / std::max(unit_secs, 1e-12);
  const double inflight = rtt * cluster_rate;
  return static_cast<std::size_t>(std::llround(std::min(inflight, 1e6)));
}

}  // namespace

ClusterEngine::ClusterEngine(const Model& model, const TrainData& data,
                             const ScaleContext& scale,
                             const ClusterEngineOptions& opts)
    : model_(model), data_(data), scale_(scale), opts_(opts),
      nodes_(std::max<std::size_t>(opts.nodes, 1)), net_(opts.link) {
  if (opts_.sync == ClusterSync::kPs) {
    ClusterSimOptions s;
    s.nodes = nodes_;
    s.batch = std::max<std::size_t>(opts_.batch, 1);
    s.net_delay_units =
        derive_net_delay_units(model, data, opts_, net_, nodes_);
    s.queue_depth = opts_.queue_depth;
    s.delay_override = opts_.delay_units;
    s.prefer_dense = opts_.use_dense;
    s.pool = opts_.pool;
    sim_ = std::make_unique<ClusterSim>(model, data, s);
  } else {
    // The all-reduce trajectory IS the sync engine's (see header); the
    // inner engine also owns the node-local compute cost model.
    SyncEngineOptions s;
    s.arch = Arch::kCpuPar;
    s.use_dense = opts_.use_dense;
    s.cpu_threads = opts_.node_threads;
    s.gemm_parallel_threshold = opts_.gemm_parallel_threshold;
    s.calibration = opts_.calibration;
    s.minibatch = opts_.batch;
    s.pool = opts_.pool;
    s.deterministic = opts_.deterministic;
    sync_ = std::make_unique<SyncEngine>(model, data, scale, s);
  }
}

ClusterEngine::~ClusterEngine() = default;

ThreadPool* ClusterEngine::pool() const {
  return opts_.pool != nullptr ? opts_.pool : &ThreadPool::global();
}

std::string ClusterEngine::name() const {
  return std::string(to_string(update())) + "/cluster/" +
         to_string(opts_.sync) + "/n" + std::to_string(nodes_);
}

void ClusterEngine::set_telemetry(
    std::shared_ptr<telemetry::TelemetrySession> s) {
  Engine::set_telemetry(std::move(s));
  if (sync_ != nullptr) sync_->set_telemetry(telemetry_);
}

double ClusterEngine::run_epoch(std::span<real_t> w, real_t alpha,
                                Rng& rng) {
  return opts_.sync == ClusterSync::kPs ? ps_epoch(w, alpha, rng)
                                        : allreduce_epoch(w, alpha, rng);
}

double ClusterEngine::ps_epoch(std::span<real_t> w, real_t alpha, Rng& rng) {
  faults_.begin_epoch();
  std::size_t down = faults_.node_down_this_epoch();
  const std::size_t n_eff = sim_->nodes_eff();
  double stall = 0;
  if (down != ClusterSim::kNoNode && n_eff <= 1) {
    // A one-node cluster has no survivors to carry the epoch: the node
    // restarts and reruns its own epoch behind an operator stall.
    down = ClusterSim::kNoNode;
    stall = kNodeRestartStallSeconds;
  }
  ThreadPool& epoch_pool = *pool();
  std::optional<PoolTelemetryGuard> tel_guard;
  if (telemetry_ != nullptr) tel_guard.emplace(epoch_pool, telemetry_.get());
  const CostBreakdown cost = sim_->run_epoch(
      w, alpha, rng, faults_.active() ? &faults_ : nullptr,
      telemetry_.get(), down);
  stats_ = sim_->last_stats();
  cost_paper_ = cost.scaled(scale_.n_scale);
  // Survivors carry the epoch when a node is down.
  const std::size_t active =
      down != ClusterSim::kNoNode ? n_eff - 1 : n_eff;
  const double compute =
      cpu_epoch_seconds(paper_cpu(), cost, scale_, opts_.node_threads,
                        /*vectorized=*/false) /
      static_cast<double>(std::max<std::size_t>(active, 1));
  const double net =
      net_.ps_epoch_seconds(n_eff, cost_paper_.net_bytes,
                            cost_paper_.net_messages, opts_.queue_depth);
  last_net_seconds_ = net;
  // Asynchronous PS overlaps compute with the wire behind the bounded-
  // delay queue — the slower of the two paces the epoch; asynchrony's
  // price is paid in epochs-to-threshold instead. Only the part of the
  // wire that outruns compute is *exposed* on the critical path, and
  // that exposed share is what the attribution ledger charges to net.
  last_split_.net_s = std::max(net - compute, 0.0);
  last_split_.stall_s = stall;
  return std::max(compute, net) + stall;
}

double ClusterEngine::allreduce_epoch(std::span<real_t> w, real_t alpha,
                                      Rng& rng) {
  faults_.begin_epoch();
  const std::size_t down = faults_.node_down_this_epoch();
  stats_ = ClusterEpochStats{};
  // The inner engine's own injector is empty: make_engine installs faults
  // only on this engine.
  const double machine_secs = sync_->run_epoch(w, alpha, rng);
  // Step-indexed faults (nan@K) fire on the outer injector; the
  // trajectory made this many model updates.
  const std::size_t upd_run =
      opts_.batch == 0
          ? 1
          : (data_.n() + opts_.batch - 1) / opts_.batch;
  faults_.after_updates(upd_run, w);

  const double upd_paper =
      opts_.batch == 0
          ? 1.0
          : std::ceil(scale_.paper_n /
                      static_cast<double>(opts_.batch));
  const double net =
      upd_paper * net_.allreduce_seconds(nodes_, scale_.model_bytes);
  double stall = 0;
  if (down != ClusterSim::kNoNode) {
    stats_.node_downs = 1;
    // The collective blocks until an operator restarts the node.
    stall = kNodeRestartStallSeconds;
  }
  cost_paper_ = sync_->last_cost();
  if (nodes_ > 1) {
    // Ring accounting: per update, 2(N-1) phases in which every node
    // sends one bytes/N chunk — N messages per phase, model_bytes per
    // phase cluster-wide.
    const double phases = 2.0 * static_cast<double>(nodes_ - 1);
    cost_paper_.net_messages +=
        upd_paper * phases * static_cast<double>(nodes_);
    cost_paper_.net_bytes += upd_paper * phases * scale_.model_bytes;
  }
  last_net_seconds_ = net;
  // Synchronous all-reduce puts the wire on the critical path of every
  // update: compute (divided across shards) and the collective add up —
  // the full wire time is exposed for attribution.
  last_split_.net_s = net;
  last_split_.stall_s = stall;
  return machine_secs / static_cast<double>(nodes_) + net + stall;
}

}  // namespace parsgd
