#include "faults/injector.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

void FaultInjector::install(const FaultPlan& plan, std::uint64_t seed) {
  plan_ = plan;
  active_ = plan.any();
  seed_ = seed;
  rng_ = Rng(seed);
  epoch_ = 0;
  step_ = 0;
  corrupt_fired_ = false;
  flip_fired_ = false;
  crash_fired_ = false;
  nodedown_fired_ = false;
  corruptions_.store(0, kRelaxed);
  bitflips_.store(0, kRelaxed);
  dropped_.store(0, kRelaxed);
  stragglers_.store(0, kRelaxed);
  straggle_us_.store(0, kRelaxed);
  node_downs_.store(0, kRelaxed);
}

void FaultInjector::set_telemetry(telemetry::TelemetrySession* session) {
  if (session != nullptr && session->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = session->metrics();
    c_crashes_ = &reg.counter("faults.crashes");
    c_bitflips_ = &reg.counter("faults.bitflips");
    c_corruptions_ = &reg.counter("faults.corruptions");
    c_dropped_ = &reg.counter("faults.dropped");
    c_stragglers_ = &reg.counter("faults.stragglers");
    c_node_downs_ = &reg.counter("faults.node_downs");
    trace_ = session->trace_enabled() ? &session->trace() : nullptr;
  } else {
    c_crashes_ = nullptr;
    c_bitflips_ = nullptr;
    c_corruptions_ = nullptr;
    c_dropped_ = nullptr;
    c_stragglers_ = nullptr;
    c_node_downs_ = nullptr;
    trace_ = nullptr;
  }
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  c.corruptions = corruptions_.load(kRelaxed);
  c.bitflips = bitflips_.load(kRelaxed);
  c.stragglers = stragglers_.load(kRelaxed);
  c.dropped = dropped_.load(kRelaxed);
  c.node_downs = node_downs_.load(kRelaxed);
  return c;
}

void FaultInjector::seek_epoch(std::size_t epoch) { epoch_ = epoch; }

void FaultInjector::begin_epoch(std::span<real_t> w) {
  if (!active()) return;
  const std::size_t e = epoch_++;
  if (!crash_fired_ && e == plan_.crash_epoch) {
    crash_fired_ = true;
    if (c_crashes_ != nullptr) c_crashes_->inc();
    if (trace_ != nullptr) {
      trace_->instant("fault.crash", {{"epoch", static_cast<double>(e)}});
    }
    throw CrashFault(e);
  }
  if (!flip_fired_ && e == plan_.flip_epoch) {
    flip_fired_ = true;
    if (plan_.flip_coord < w.size()) {
      static_assert(sizeof(real_t) == sizeof(std::uint32_t));
      std::uint32_t bits = std::bit_cast<std::uint32_t>(w[plan_.flip_coord]);
      bits ^= std::uint32_t{1} << (plan_.flip_bit & 31u);
      w[plan_.flip_coord] = std::bit_cast<real_t>(bits);
      bitflips_.fetch_add(1, kRelaxed);
      if (c_bitflips_ != nullptr) c_bitflips_->inc();
      if (trace_ != nullptr) {
        trace_->instant("fault.bitflip",
                        {{"epoch", static_cast<double>(e)},
                         {"coord", static_cast<double>(plan_.flip_coord)}});
      }
    }
  }
}

std::size_t FaultInjector::node_down_this_epoch() {
  if (!active() || nodedown_fired_ || epoch_ == 0) return kNoNode;
  // begin_epoch advanced the clock past the epoch it just started.
  if (epoch_ - 1 != plan_.nodedown_epoch) return kNoNode;
  nodedown_fired_ = true;
  node_downs_.fetch_add(1, kRelaxed);
  if (c_node_downs_ != nullptr) c_node_downs_->inc();
  if (trace_ != nullptr) {
    trace_->instant("fault.nodedown",
                    {{"epoch", static_cast<double>(epoch_ - 1)},
                     {"node", static_cast<double>(plan_.nodedown_node)}});
  }
  return plan_.nodedown_node;
}

void FaultInjector::after_updates(std::size_t steps, std::span<real_t> w) {
  if (!active()) return;
  const std::size_t before = step_;
  step_ += steps;
  if (corrupt_fired_ || plan_.corrupt == FaultPlan::Corrupt::kNone) return;
  if (before <= plan_.corrupt_step && plan_.corrupt_step < step_) {
    corrupt_fired_ = true;
    const real_t bad = plan_.corrupt == FaultPlan::Corrupt::kNan
                           ? std::numeric_limits<real_t>::quiet_NaN()
                           : std::numeric_limits<real_t>::infinity();
    for (real_t& x : w) x = bad;
    corruptions_.fetch_add(1, kRelaxed);
    if (c_corruptions_ != nullptr) c_corruptions_->inc();
    if (trace_ != nullptr) {
      trace_->instant("fault.corrupt",
                      {{"step", static_cast<double>(plan_.corrupt_step)}});
    }
  }
}

bool FaultInjector::drop_update() {
  if (!active()) return false;
  if (plan_.drop_prob <= 0 || !rng_.bernoulli(plan_.drop_prob)) {
    return false;
  }
  dropped_.fetch_add(1, kRelaxed);
  if (c_dropped_ != nullptr) c_dropped_->inc();
  return true;
}

std::size_t FaultInjector::straggle_units() {
  if (!active() || plan_.straggler_prob <= 0) return 0;
  if (!rng_.bernoulli(plan_.straggler_prob)) return 0;
  stragglers_.fetch_add(1);
  if (c_stragglers_ != nullptr) c_stragglers_->inc();
  return 1 + rng_.uniform_index(plan_.straggler_units);
}

bool FaultInjector::chunk_straggles(std::size_t chunk) const {
  if (!active() || plan_.straggler_prob <= 0) return false;
  std::uint64_t h = seed_ ^ (0x9e3779b97f4a7c15ULL * (chunk + 1));
  const std::uint64_t r = splitmix64(h);
  return static_cast<double>(r >> 11) * 0x1.0p-53 < plan_.straggler_prob;
}

void FaultInjector::chunk_hook(std::size_t chunk) {
  if (!chunk_straggles(chunk)) return;
  note_chunk_straggled();
  if (c_stragglers_ != nullptr) c_stragglers_->inc();
  if (trace_ != nullptr) {
    trace_->instant("fault.straggle",
                    {{"chunk", static_cast<double>(chunk)}});
  }
  const double delay_us = 50.0 * static_cast<double>(plan_.straggler_units);
  straggle_us_.fetch_add(delay_us, kRelaxed);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(delay_us));
}

ChunkHookGuard::ChunkHookGuard(ThreadPool& pool, FaultInjector& faults) {
  if (!faults.active() || faults.plan().straggler_prob <= 0) return;
  pool_ = &pool;
  pool_->set_chunk_hook(
      [&faults](std::size_t chunk) { faults.chunk_hook(chunk); });
}

ChunkHookGuard::~ChunkHookGuard() {
  if (pool_ != nullptr) pool_->set_chunk_hook(nullptr);
}

}  // namespace parsgd
