#include "telemetry/attribution.hpp"

#include <algorithm>
#include <sstream>

namespace parsgd::telemetry {

namespace {

double clamp0(double v) { return v > 0 ? v : 0; }

/// Clamps each bucket at 0 and scales them down proportionally when they
/// overshoot `total`, so the residual (total - sum) is never negative.
/// Returns the residual.
double normalize_buckets(double total, std::initializer_list<double*> buckets) {
  double sum = 0;
  for (double* b : buckets) {
    *b = clamp0(*b);
    sum += *b;
  }
  const double cap = clamp0(total);
  if (sum > cap && sum > 0) {
    const double scale = cap / sum;
    for (double* b : buckets) *b *= scale;
    sum = cap;
  }
  return cap - sum;
}

}  // namespace

std::vector<BucketView> modeled_split(const EpochAttribution& e) {
  return {{"compute", e.m_compute_s},
          {"net", e.m_net_s},
          {"stall", e.m_stall_s}};
}

std::vector<BucketView> host_split(const EpochAttribution& e) {
  return {{"compute", e.h_compute_s},
          {"queue_wait", e.h_queue_s},
          {"ready_wait", e.h_ready_s},
          {"recovery", e.h_recovery_s},
          {"checkpoint", e.h_checkpoint_s}};
}

void AttributionLedger::add(EpochAttribution e) {
  e.modeled_s = clamp0(e.modeled_s);
  e.host_s = clamp0(e.host_s);
  e.m_compute_s = normalize_buckets(e.modeled_s, {&e.m_net_s, &e.m_stall_s});
  e.h_compute_s = normalize_buckets(
      e.host_s,
      {&e.h_queue_s, &e.h_ready_s, &e.h_recovery_s, &e.h_checkpoint_s});
  epochs_.push_back(e);
}

EpochAttribution AttributionLedger::last() const {
  return epochs_.empty() ? EpochAttribution{} : epochs_.back();
}

EpochAttribution AttributionLedger::total() const {
  EpochAttribution t;
  for (const EpochAttribution& e : epochs_) {
    t.modeled_s += e.modeled_s;
    t.m_compute_s += e.m_compute_s;
    t.m_net_s += e.m_net_s;
    t.m_stall_s += e.m_stall_s;
    t.host_s += e.host_s;
    t.h_compute_s += e.h_compute_s;
    t.h_queue_s += e.h_queue_s;
    t.h_ready_s += e.h_ready_s;
    t.h_recovery_s += e.h_recovery_s;
    t.h_checkpoint_s += e.h_checkpoint_s;
    t.loss = e.loss;
  }
  t.epoch = static_cast<int>(epochs_.size());
  return t;
}

EpochAttribution AttributionLedger::mean() const {
  EpochAttribution m = total();
  if (epochs_.empty()) return m;
  const double n = static_cast<double>(epochs_.size());
  m.modeled_s /= n;
  m.m_compute_s /= n;
  m.m_net_s /= n;
  m.m_stall_s /= n;
  m.host_s /= n;
  m.h_compute_s /= n;
  m.h_queue_s /= n;
  m.h_ready_s /= n;
  m.h_recovery_s /= n;
  m.h_checkpoint_s /= n;
  return m;
}

std::string format_status_line(const RunStatus& s) {
  std::ostringstream os;
  os << s.engine << " epoch " << s.epoch << "/" << s.epochs_total
     << " loss=" << s.loss;
  if (s.eta_s >= 0) os << " eta=" << s.eta_s << "s";
  if (s.has_resilience) os << " rec=" << s.recoveries;
  if (s.has_attribution && s.mean.host_s > 0) {
    // Top steady-state host buckets as percentages.
    std::vector<BucketView> split = host_split(s.mean);
    std::sort(split.begin(), split.end(),
              [](const BucketView& a, const BucketView& b) {
                return a.seconds > b.seconds;
              });
    os << " split=";
    int shown = 0;
    for (const BucketView& b : split) {
      if (shown == 3 || b.seconds <= 0) break;
      const int pct =
          static_cast<int>(100.0 * b.seconds / s.mean.host_s + 0.5);
      os << (shown > 0 ? "|" : "") << b.name << ":" << pct << "%";
      ++shown;
    }
  }
  return os.str();
}

}  // namespace parsgd::telemetry
