#include "faults/injector.hpp"

#include <limits>

namespace parsgd {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

void FaultInjector::install(const FaultPlan& plan) {
  plan_ = plan;
  active_ = plan.any();
  epoch_ = 0;
  step_ = 0;
  corrupt_fired_ = false;
  crash_fired_ = false;
  corruptions_.store(0, kRelaxed);
}

void FaultInjector::set_telemetry(telemetry::TelemetrySession* session) {
  if (session != nullptr && session->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = session->metrics();
    c_crashes_ = &reg.counter("faults.crashes");
    c_corruptions_ = &reg.counter("faults.corruptions");
    trace_ = session->trace_enabled() ? &session->trace() : nullptr;
  } else {
    c_crashes_ = nullptr;
    c_corruptions_ = nullptr;
    trace_ = nullptr;
  }
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  c.corruptions = corruptions_.load(kRelaxed);
  return c;
}

void FaultInjector::seek_epoch(std::size_t epoch) { epoch_ = epoch; }

void FaultInjector::begin_epoch() {
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

}  // namespace parsgd
