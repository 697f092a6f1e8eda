#include "telemetry/attribution.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
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

std::string num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_split(std::ostringstream& os, const std::vector<BucketView>& split) {
  os << "{";
  bool first = true;
  for (const BucketView& b : split) {
    os << (first ? "" : ",") << "\"" << b.name << "\":" << num(b.seconds);
    first = false;
  }
  os << "}";
}

void append_record(std::ostringstream& os, const EpochAttribution& e) {
  os << "{\"epoch\":" << e.epoch << ",\"loss\":" << num(e.loss)
     << ",\"modeled_s\":" << num(e.modeled_s)
     << ",\"host_s\":" << num(e.host_s) << ",\"modeled_split\":";
  append_split(os, modeled_split(e));
  os << ",\"host_split\":";
  append_split(os, host_split(e));
  os << "}";
}

}  // namespace

std::vector<BucketView> modeled_split(const EpochAttribution& e) {
  return {{"compute", e.m_compute_s},
          {"net", e.m_net_s},
          {"stall", e.m_stall_s}};
}

std::vector<BucketView> host_split(const EpochAttribution& e) {
  return {{"compute", e.h_compute_s},   {"queue_wait", e.h_queue_s},
          {"ready_wait", e.h_ready_s},  {"stall", e.h_stall_s},
          {"recovery", e.h_recovery_s}, {"checkpoint", e.h_checkpoint_s}};
}

void AttributionLedger::add(EpochAttribution e) {
  e.modeled_s = clamp0(e.modeled_s);
  e.host_s = clamp0(e.host_s);
  e.m_compute_s = normalize_buckets(e.modeled_s, {&e.m_net_s, &e.m_stall_s});
  e.h_compute_s = normalize_buckets(
      e.host_s, {&e.h_queue_s, &e.h_ready_s, &e.h_stall_s, &e.h_recovery_s,
                 &e.h_checkpoint_s});
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
    t.h_stall_s += e.h_stall_s;
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
  m.h_stall_s /= n;
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
  if (s.record_ms > 0) os << " frames=" << s.flight_frames;
  if (s.has_attribution && s.mean.host_s > 0) {
    // Top steady-state host buckets as percentages — the same numbers the
    // status file carries, rendered from the same RunStatus.
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

std::string status_json(const RunStatus& s) {
  std::ostringstream os;
  os << "{\"schema\":1,\"engine\":\"" << escape(s.engine) << "\""
     << ",\"epoch\":" << s.epoch << ",\"epochs\":" << s.epochs_total
     << ",\"loss\":" << num(s.loss) << ",\"eta_s\":" << num(s.eta_s);
  if (s.has_resilience) {
    os << ",\"resilience\":{\"recoveries\":" << s.recoveries << "}";
  }
  if (s.record_ms > 0) {
    os << ",\"record\":{\"cadence_ms\":" << num(s.record_ms)
       << ",\"frames\":" << s.flight_frames << "}";
  }
  if (s.has_attribution) {
    os << ",\"attribution\":{\"modeled_total_s\":" << num(s.modeled_total_s)
       << ",\"host_total_s\":" << num(s.host_total_s) << ",\"last\":";
    append_record(os, s.last);
    os << ",\"mean\":";
    append_record(os, s.mean);
    os << "}";
  }
  if (!s.nodes.empty()) {
    os << ",\"nodes\":[";
    for (std::size_t i = 0; i < s.nodes.size(); ++i) {
      const NodeStatus& n = s.nodes[i];
      os << (i > 0 ? "," : "") << "{\"node\":" << n.node
         << ",\"units\":" << num(n.units) << ",\"mbytes\":" << num(n.mbytes)
         << ",\"net_s\":" << num(n.net_s)
         << ",\"down\":" << (n.down ? "true" : "false") << "}";
    }
    os << "]";
  }
  os << "}\n";
  return os.str();
}

bool write_status_file(const std::string& path, const RunStatus& s) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) return false;
    f << status_json(s);
    if (!f.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace parsgd::telemetry
