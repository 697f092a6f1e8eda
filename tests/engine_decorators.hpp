// Test-only Engine decorators: they drive and observe run_training from
// outside the engines, so the engines carry no test seams.
//
//  * ForwardingEngine forwards every Engine call to an inner engine; a
//    decorator overrides only what it changes.
//  * PoisonAfterEpoch drives the divergence watchdog (DESIGN.md §11):
//    right after the run's `epoch`-th carried epoch (0-based, counted
//    over run_epoch_carried calls) it overwrites every weight with
//    `value` (NaN or Inf) and clears the epoch carry, so run_training's
//    loss pass sees the poisoned weights. It fires once: a watchdog
//    rollback re-runs the epoch clean, the transient fault the rollback
//    exists for.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "sgd/engine.hpp"

namespace parsgd {

class ForwardingEngine : public Engine {
 public:
  explicit ForwardingEngine(std::unique_ptr<Engine> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Arch arch() const override { return inner_->arch(); }
  Update update() const override { return inner_->update(); }

  double run_epoch(std::span<real_t> w, real_t alpha, Rng& rng) override {
    return inner_->run_epoch(w, alpha, rng);
  }
  double run_epoch_carried(std::span<real_t> w, real_t alpha, Rng& rng,
                           EpochCarry& carry) override {
    return inner_->run_epoch_carried(w, alpha, rng, carry);
  }
  double epoch_seconds(std::span<const real_t> w_sample) override {
    return inner_->epoch_seconds(w_sample);
  }
  const CostBreakdown& last_cost() const override {
    return inner_->last_cost();
  }
  EpochSplit last_epoch_split() const override {
    return inner_->last_epoch_split();
  }
  /// Attaches the session to both: run_training reads it from the
  /// decorator, the inner engine records into it.
  void set_telemetry(
      std::shared_ptr<telemetry::TelemetrySession> s) override {
    inner_->set_telemetry(s);
    Engine::set_telemetry(std::move(s));
  }
  ThreadPool* pool() const override { return inner_->pool(); }
  const gpusim::Device* device() const override { return inner_->device(); }

 private:
  std::unique_ptr<Engine> inner_;
};

class PoisonAfterEpoch final : public ForwardingEngine {
 public:
  PoisonAfterEpoch(std::unique_ptr<Engine> inner, std::size_t epoch,
                   real_t value)
      : ForwardingEngine(std::move(inner)), epoch_(epoch), value_(value) {}

  double run_epoch_carried(std::span<real_t> w, real_t alpha, Rng& rng,
                           EpochCarry& carry) override {
    const double secs =
        ForwardingEngine::run_epoch_carried(w, alpha, rng, carry);
    if (epochs_run_++ == epoch_) {
      std::fill(w.begin(), w.end(), value_);
      carry.clear();
    }
    return secs;
  }

 private:
  std::size_t epoch_;
  real_t value_;
  std::size_t epochs_run_ = 0;
};

}  // namespace parsgd
