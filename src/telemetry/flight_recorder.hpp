// FlightRecorder — a bounded, lock-free ring of run-state frames sampled
// at a fixed cadence (DESIGN.md §18).
//
// The recorder answers "what were the last N seconds of this run doing"
// after the fact: the driver thread samples one FlightSample per accepted
// epoch whenever the cadence (`record=N ms` spec key) has elapsed, the
// ring keeps the most recent `capacity` frames, and the checkpoint path
// persists the window so a post-mortem works even after a crash@E fault.
//
// Concurrency model: exactly one writer (the run_training driver thread).
// Readers may snapshot concurrently from other threads; each slot is a
// tiny seqlock (atomic sequence word, odd = write in progress) over a
// payload of relaxed atomic doubles, so window() is TSan-clean and never
// blocks the writer. A torn read retries; a slot that stays torn is
// skipped (the writer lapped the reader — the frame was leaving the
// window anyway).
//
// Off (`record=off`, the default) means run_training never constructs a
// recorder: the hot path pays one null test and trajectories stay
// bit-identical — the same contract the telemetry session has.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace parsgd::telemetry {

/// One frame: cumulative run state at the sample instant. Field order is
/// the serialization order (to_array/from_array) used by checkpoint v2.
struct FlightSample {
  static constexpr std::size_t kFields = 13;

  double t_s = 0;       ///< monotonic_seconds() at the sample
  double epoch = 0;     ///< epochs completed
  double loss = 0;      ///< loss after that epoch
  double modeled_s = 0; ///< cumulative modeled seconds
  double host_s = 0;    ///< cumulative host seconds
  // Cumulative attribution buckets (see attribution.hpp).
  double m_net_s = 0;
  double m_stall_s = 0;
  double h_queue_s = 0;
  double h_ready_s = 0;
  double h_stall_s = 0;
  double h_recovery_s = 0;
  double h_checkpoint_s = 0;
  double recoveries = 0;  ///< watchdog rollbacks so far

  std::array<double, kFields> to_array() const {
    return {t_s,      epoch,    loss,      modeled_s,    host_s,
            m_net_s,  m_stall_s, h_queue_s, h_ready_s,   h_stall_s,
            h_recovery_s, h_checkpoint_s, recoveries};
  }
  static FlightSample from_array(const std::array<double, kFields>& a) {
    FlightSample s;
    s.t_s = a[0];
    s.epoch = a[1];
    s.loss = a[2];
    s.modeled_s = a[3];
    s.host_s = a[4];
    s.m_net_s = a[5];
    s.m_stall_s = a[6];
    s.h_queue_s = a[7];
    s.h_ready_s = a[8];
    s.h_stall_s = a[9];
    s.h_recovery_s = a[10];
    s.h_checkpoint_s = a[11];
    s.recoveries = a[12];
    return s;
  }
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// `cadence_ms` > 0; frames are recorded at most this often.
  explicit FlightRecorder(double cadence_ms,
                          std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  double cadence_ms() const { return cadence_ms_; }
  std::size_t capacity() const { return ring_.size(); }

  /// True when the cadence has elapsed since the last push (always true
  /// for the first frame). Writer-thread only.
  bool due(double now_s) const;

  /// Appends a frame (writer-thread only) and latches `now_s` as the
  /// cadence reference.
  void push(const FlightSample& s, double now_s);

  /// Frames ever pushed (>= window size once the ring wraps).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Copy of the retained window, oldest first. Safe from any thread.
  std::vector<FlightSample> window() const;

 private:
  struct Slot {
    /// Seqlock word: 0 = never written, odd = write in progress,
    /// 2*(frame_index+1) = stable.
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<double>, FlightSample::kFields> v{};
  };

  double cadence_ms_;
  double last_push_s_ = -1;
  std::vector<Slot> ring_;
  std::atomic<std::uint64_t> head_{0};  ///< frames ever pushed
};

}  // namespace parsgd::telemetry
