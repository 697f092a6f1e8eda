// MetricsRegistry — named Counter/Gauge/Histogram instruments with
// lock-free hot paths (DESIGN.md §12).
//
// Design constraints, in order:
//  * Zero overhead when telemetry is off: consumers hold a nullable
//    TelemetrySession* (or cached instrument pointers) and the disabled
//    path is a single pointer test — no atomics, no allocation, no RNG.
//  * Recordable from pool workers: Counter and Histogram shard their
//    state into cache-line-padded per-thread slots (relaxed atomics, no
//    sharing between writers on distinct slots) and aggregate on read.
//    More live threads than slots simply share slots — still correct,
//    just with some cross-thread cache traffic.
//  * Handles are stable: the registry owns instruments behind unique_ptr,
//    so a Counter* fetched once stays valid for the registry's lifetime
//    and can be cached in hot structures (ThreadPool does this).
//  * Deferrable: while a MetricLog is installed on a thread, that
//    thread's updates are appended to the log instead of applied, and
//    MetricLog::replay() applies them later in recorded order. Runs that
//    execute concurrently replay their logs in run order, so every
//    aggregate (including order-sensitive fractional sums) equals the
//    serial one. The extra hot-path cost is one thread-local test.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace parsgd::telemetry {

/// Dense per-thread slot index in [0, kMaxThreadSlots). Assigned on a
/// thread's first call and stable for its lifetime; threads beyond the
/// slot count wrap around (sharing a slot is safe — all slot state is
/// atomic). The trace recorder uses the same index as its lane id.
inline constexpr std::size_t kMaxThreadSlots = 64;
std::size_t thread_slot();

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
const char* to_string(MetricKind k);

class MetricLog;

namespace detail {
/// The calling thread's installed log (MetricLog::Scope); null when
/// updates apply directly.
extern constinit thread_local MetricLog* t_metric_log;
void defer(MetricKind kind, void* instrument, double v);
}  // namespace detail

/// Monotonically increasing sum, sharded per thread.
class Counter {
 public:
  void add(double v) {
    if (detail::t_metric_log != nullptr) [[unlikely]] {
      detail::defer(MetricKind::kCounter, this, v);
      return;
    }
    slots_[thread_slot()].v.fetch_add(v, std::memory_order_relaxed);
  }
  void inc() { add(1.0); }

  /// Aggregate over all slots (racy-by-design against live writers: the
  /// value is a consistent lower bound, exact once writers quiesce).
  double value() const {
    double total = 0;
    for (const Slot& s : slots_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<double> v{0};
  };
  std::array<Slot, kMaxThreadSlots> slots_;
};

/// Last-written value. A gauge's semantics ("the current level") do not
/// decompose into per-thread shards, so it is a single relaxed atomic —
/// sets are rare (per job / per epoch), never per update.
class Gauge {
 public:
  void set(double v) {
    if (detail::t_metric_log != nullptr) [[unlikely]] {
      detail::defer(MetricKind::kGauge, this, v);
      return;
    }
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Power-of-two-bucketed histogram of non-negative samples (ns timings,
/// sizes), sharded per thread like Counter. Bucket b counts samples in
/// [2^(b-1), 2^b); quantiles interpolate linearly inside the terminal
/// bucket (uniform-within-bucket assumption), which is the right
/// fidelity for "is queue wait 2us or 2ms".
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(double v);

  std::uint64_t count() const;
  double sum() const;
  double max_seen() const;
  /// q-quantile (q in [0, 1]), linearly interpolated within the bucket
  /// holding the rank-q sample; q=1 resolves to that bucket's upper edge.
  double quantile(double q) const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<double> sum{0};
    /// Monotonic max via CAS on the bit pattern (samples are >= 0, so
    /// IEEE ordering matches integer ordering of the bits).
    std::atomic<std::uint64_t> max_bits{0};
  };
  std::array<Slot, kMaxThreadSlots> slots_;
};

/// Instrument updates recorded for later, in order (see the header
/// comment). Install one on a thread with Scope; replay() on the thread
/// that should own the updates. The instruments must outlive the log's
/// replay.
class MetricLog {
 public:
  /// Routes the calling thread's updates into `log` for the scope's
  /// lifetime, restoring the previously installed log (if any) after.
  class Scope {
   public:
    explicit Scope(MetricLog& log) : prev_(detail::t_metric_log) {
      detail::t_metric_log = &log;
    }
    ~Scope() { detail::t_metric_log = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MetricLog* prev_;
  };

  /// Applies every recorded update in order on the calling thread (into
  /// its installed log, if it has one).
  void replay() const;

 private:
  friend void detail::defer(MetricKind, void*, double);
  struct Op {
    MetricKind kind;
    void* instrument;
    double v;
  };
  std::vector<Op> ops_;
};

/// One aggregated instrument, ready for export. Counters/gauges fill
/// `value`; histograms fill count/sum/quantiles (`value` = sum).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;
  std::uint64_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  ///< sorted by name

  /// Sample by exact name; nullptr when absent.
  const MetricSample* find(const std::string& name) const;
};

/// Name -> instrument map. Lookup takes a mutex (cold path: consumers
/// resolve handles once and cache the pointer); recording never locks.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. A name is bound to one kind for the registry's
  /// lifetime; re-requesting it as a different kind throws CheckError.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(const std::string& name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace parsgd::telemetry
