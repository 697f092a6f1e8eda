#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace parsgd::telemetry {

std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMaxThreadSlots;
  return slot;
}

namespace detail {

constinit thread_local MetricLog* t_metric_log = nullptr;

void defer(MetricKind kind, void* instrument, double v) {
  t_metric_log->ops_.push_back({kind, instrument, v});
}

}  // namespace detail

void MetricLog::replay() const {
  for (const Op& op : ops_) {
    switch (op.kind) {
      case MetricKind::kCounter:
        static_cast<Counter*>(op.instrument)->add(op.v);
        break;
      case MetricKind::kGauge:
        static_cast<Gauge*>(op.instrument)->set(op.v);
        break;
      case MetricKind::kHistogram:
        static_cast<Histogram*>(op.instrument)->record(op.v);
        break;
    }
  }
}

namespace {

/// Bucket of a non-negative sample: 0 for v < 1, else 1 + floor(log2 v),
/// clamped to the top bucket.
std::size_t bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // also catches NaN
  const auto u = static_cast<std::uint64_t>(v);
  const std::size_t b = static_cast<std::size_t>(std::bit_width(u));
  return std::min(b, Histogram::kBuckets - 1);
}

/// Upper edge of bucket b.
double bucket_edge(std::size_t b) {
  if (b == 0) return 1.0;
  return std::ldexp(1.0, static_cast<int>(b));
}

/// Lower edge of bucket b (bucket 0 holds [0, 1)).
double bucket_floor(std::size_t b) {
  if (b == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(b) - 1);
}

}  // namespace

void Histogram::record(double v) {
  if (detail::t_metric_log != nullptr) [[unlikely]] {
    detail::defer(MetricKind::kHistogram, this, v);
    return;
  }
  if (std::isnan(v)) return;
  if (v < 0) v = 0;
  Slot& s = slots_[thread_slot()];
  s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  std::uint64_t cur = s.max_bits.load(std::memory_order_relaxed);
  while (bits > cur &&
         !s.max_bits.compare_exchange_weak(cur, bits,
                                           std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) {
    for (const auto& b : s.buckets) {
      total += b.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const {
  double total = 0;
  for (const Slot& s : slots_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::max_seen() const {
  std::uint64_t bits = 0;
  for (const Slot& s : slots_) {
    bits = std::max(bits, s.max_bits.load(std::memory_order_relaxed));
  }
  return std::bit_cast<double>(bits);
}

double Histogram::quantile(double q) const {
  std::array<std::uint64_t, kBuckets> merged{};
  std::uint64_t total = 0;
  for (const Slot& s : slots_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = s.buckets[b].load(std::memory_order_relaxed);
      merged[b] += c;
      total += c;
    }
  }
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))),
      1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = merged[b];
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      // Linear interpolation within the terminal bucket: assume samples
      // spread uniformly across [floor, edge) and place the rank-th one
      // proportionally, instead of snapping every quantile to the edge.
      const double lower = bucket_floor(b);
      const double upper = bucket_edge(b);
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(in_bucket);
      return lower + frac * (upper - lower);
    }
    seen += in_bucket;
  }
  return bucket_edge(kBuckets - 1);
}

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const MetricSample* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               MetricKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case MetricKind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(e)).first;
  }
  PARSGD_CHECK(it->second.kind == kind,
               "metric '" << name << "' already registered as "
                          << to_string(it->second.kind)
                          << ", requested as " << to_string(kind));
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *entry(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *entry(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *entry(name, MetricKind::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.samples.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter: s.value = e.counter->value(); break;
      case MetricKind::kGauge: s.value = e.gauge->value(); break;
      case MetricKind::kHistogram:
        s.value = e.histogram->sum();
        s.count = e.histogram->count();
        s.p50 = e.histogram->quantile(0.50);
        s.p90 = e.histogram->quantile(0.90);
        s.p99 = e.histogram->quantile(0.99);
        s.max = e.histogram->max_seen();
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

}  // namespace parsgd::telemetry
