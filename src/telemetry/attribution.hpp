// Epoch time-budget ledger + heartbeat status line (DESIGN.md §18).
//
// The paper's argument decomposes runtime into hardware cost classes
// (compute vs. synchronization vs. data movement); this layer makes that
// decomposition a first-class, queryable artifact. Every accepted epoch
// contributes one EpochAttribution record carrying two *exact* splits:
//
//  * the modeled split over the engine's modeled seconds
//        modeled_s == m_compute_s + m_net_s + m_stall_s
//    (network and stall come from Engine::last_epoch_split, which no
//    engine fills today, so compute, the residual, is all of it), and
//  * the host split over the measured wall seconds of the epoch
//        host_s == h_compute_s + h_queue_s + h_ready_s + h_recovery_s
//                  + h_checkpoint_s
//    (pool queue-wait and graph ready-wait from the telemetry histogram
//    deltas, recovery and checkpoint I/O timed around their blocks in
//    run_training; compute is the residual).
//
// AttributionLedger::add() clamps and renormalizes the measured buckets so
// both identities hold exactly — "buckets sum to epoch time within 1%" is
// then true by construction, and any clamping is visible as a shrunken
// bucket rather than a broken sum.
//
// RunStatus carries what the heartbeat log line (format_status_line)
// shows while a run is live; the full ledger reaches disk only through
// RunResult::attribution and the RunReport `attribution` slice.
//
// This header is sgd/report-free on purpose (telemetry links only
// parsgd_common): run_training fills the records; the report layer
// consumes them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace parsgd::telemetry {

/// One epoch's time budget. All *_s fields are seconds. Raw measured
/// bucket values go in; AttributionLedger::add() normalizes them (clamp
/// at 0, proportional scale-down when they exceed the total, residual
/// into the compute fields) so both splits sum exactly.
struct EpochAttribution {
  int epoch = 0;      ///< 0-based epoch index
  double loss = 0;    ///< loss after the epoch

  // ---- modeled split (paper-scale seconds) ----
  double modeled_s = 0;    ///< engine-modeled epoch seconds
  double m_compute_s = 0;  ///< residual: modeled_s - net - stall
  double m_net_s = 0;      ///< exposed (critical-path) network seconds
  double m_stall_s = 0;    ///< staleness stall

  // ---- host split (measured wall seconds of run_epoch + loss eval) ----
  double host_s = 0;         ///< measured wall seconds
  double h_compute_s = 0;    ///< residual: host_s - all measured waits
  double h_queue_s = 0;      ///< pool queue-wait (per-worker share)
  double h_ready_s = 0;      ///< task-graph ready-wait (per-worker share)
  double h_recovery_s = 0;   ///< watchdog rollbacks before epoch
  double h_checkpoint_s = 0; ///< checkpoint write after the epoch
};

/// (bucket name, seconds) pair for fixed-order iteration by exporters.
struct BucketView {
  const char* name;
  double seconds;
};

/// Fixed-order view of the modeled split: compute, net, stall.
std::vector<BucketView> modeled_split(const EpochAttribution& e);
/// Fixed-order view of the host split: compute, queue_wait, ready_wait,
/// recovery, checkpoint.
std::vector<BucketView> host_split(const EpochAttribution& e);

/// Accumulates per-epoch attribution records for one training run.
/// Single-threaded (driven by the run_training loop); readers take
/// copies via last()/mean()/epochs().
class AttributionLedger {
 public:
  /// Normalizes `e` (see EpochAttribution) and appends it.
  void add(EpochAttribution e);

  bool empty() const { return epochs_.empty(); }
  std::size_t size() const { return epochs_.size(); }
  const std::vector<EpochAttribution>& epochs() const { return epochs_; }
  /// Most recent record (zeros when empty).
  EpochAttribution last() const;
  /// Steady-state split: per-bucket mean seconds over all epochs.
  EpochAttribution mean() const;
  /// Per-bucket sums over all epochs (epoch = count, loss = last loss).
  EpochAttribution total() const;

 private:
  std::vector<EpochAttribution> epochs_;
};

/// What the heartbeat line shows. run_training fills one of these per
/// heartbeat; format_status_line renders it.
struct RunStatus {
  std::string engine;    ///< Engine::name()
  int epoch = 0;         ///< epochs completed
  int epochs_total = 0;
  double loss = 0;
  double eta_s = -1;     ///< host-seconds to completion; < 0 = unknown

  bool has_resilience = false;  ///< gates the rec= field (watchdog on)
  std::uint64_t recoveries = 0;

  bool has_attribution = false;  ///< gates the bucket fields
  EpochAttribution mean;         ///< steady-state split
};

/// The heartbeat log line. Base fields always; " rec=N" when
/// has_resilience; a " split=bucket:NN%|..." suffix (top host buckets of
/// the steady-state split) when has_attribution.
std::string format_status_line(const RunStatus& s);

}  // namespace parsgd::telemetry
