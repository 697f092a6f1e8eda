#include "report/chrome_trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace parsgd::report {

namespace {

std::string num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const telemetry::TelemetrySession& session) {
  const std::vector<telemetry::TraceEvent> events = session.trace().events();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // One named lane per telemetry thread slot that recorded anything.
  // Slot 0 is whichever thread recorded first (typically the main thread).
  std::vector<bool> lane_seen;
  for (const telemetry::TraceEvent& ev : events) {
    if (ev.tid >= lane_seen.size()) lane_seen.resize(ev.tid + 1, false);
    if (!lane_seen[ev.tid]) {
      lane_seen[ev.tid] = true;
      os << (first ? "" : ",\n")
         << "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << ev.tid << ",\"args\":{\"name\":\"lane " << ev.tid << "\"}}";
      first = false;
    }
    os << (first ? "" : ",\n") << "  {\"name\":\"" << json_escape(ev.name)
       << "\",\"ph\":\"" << (ev.instant ? "i" : "X")
       << "\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"ts\":" << num(static_cast<double>(ev.start_ns) * 1e-3);
    if (ev.instant) {
      os << ",\"s\":\"t\"";
    } else {
      os << ",\"dur\":" << num(static_cast<double>(ev.dur_ns) * 1e-3);
    }
    if (ev.n_args > 0) {
      os << ",\"args\":{";
      for (std::size_t a = 0; a < ev.n_args; ++a) {
        os << (a > 0 ? "," : "") << "\"" << json_escape(ev.args[a].key)
           << "\":" << num(ev.args[a].value);
      }
      os << "}";
    }
    os << "}";
    first = false;
  }
  // Surface recorder loss in the trace itself: an instant event pinned at
  // the last span's timestamp, carrying the drop count as an arg.
  if (const std::uint64_t dropped = session.trace().dropped(); dropped > 0) {
    std::uint64_t last_ns = 0;
    for (const telemetry::TraceEvent& ev : events) {
      last_ns = std::max(last_ns, ev.start_ns + ev.dur_ns);
    }
    os << (first ? "" : ",\n")
       << "  {\"name\":\"trace.dropped_spans\",\"ph\":\"i\",\"pid\":1,"
          "\"tid\":0,\"ts\":"
       << num(static_cast<double>(last_ns) * 1e-3)
       << ",\"s\":\"g\",\"args\":{\"dropped\":" << dropped << "}}";
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace parsgd::report
