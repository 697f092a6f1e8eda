// TelemetrySession — the per-run bundle of a mode, a MetricsRegistry and
// a TraceRecorder (DESIGN.md §12). EngineContext owns one (shared_ptr);
// engines, the thread pool and run_training all see the same session, so
// one export call covers the whole stack.
//
// Modes (the `telemetry=` spec key):
//   off     — no session or an off session; instrumented code sees null
//             handles and pays one branch.
//   metrics — counters/gauges/histograms record; spans are no-ops.
//   trace   — metrics plus per-thread trace spans.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace parsgd::telemetry {

enum class TelemetryMode : std::uint8_t { kOff, kMetrics, kTrace };

const char* to_string(TelemetryMode m);
/// Parses "off" / "metrics" / "trace"; nullopt on anything else.
std::optional<TelemetryMode> parse_telemetry_mode(const std::string& s);

class TelemetrySession {
 public:
  explicit TelemetrySession(TelemetryMode mode) : mode_(mode) {}
  /// WARNs once when the trace recorder discarded spans (a capped buffer
  /// degrades the trace silently at record time; the session end is the
  /// one place every run passes through).
  ~TelemetrySession();
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  TelemetryMode mode() const { return mode_; }
  bool metrics_enabled() const { return mode_ != TelemetryMode::kOff; }
  bool trace_enabled() const { return mode_ == TelemetryMode::kTrace; }

  /// Valid regardless of mode (an off session still aggregates to empty
  /// snapshots); consumers gate on *_enabled() before resolving handles.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// Aggregated metrics snapshot with session-level instruments folded
  /// in: a synthetic `trace.dropped_spans` counter appears whenever the
  /// trace recorder hit a buffer cap, so every exporter surfaces the
  /// loss. Prefer this over metrics().snapshot() when exporting.
  MetricsSnapshot snapshot() const;

 private:
  TelemetryMode mode_;
  MetricsRegistry metrics_;
  TraceRecorder trace_;
};

namespace detail {

/// Span target of a session pointer: null unless tracing. Accepts raw
/// and shared pointers so PARSGD_TRACE_SPAN works with either.
inline TraceRecorder* recorder_of(TelemetrySession* s) {
  return (s != nullptr && s->trace_enabled()) ? &s->trace() : nullptr;
}
inline TraceRecorder* recorder_of(const std::shared_ptr<TelemetrySession>& s) {
  return recorder_of(s.get());
}

}  // namespace detail

}  // namespace parsgd::telemetry
