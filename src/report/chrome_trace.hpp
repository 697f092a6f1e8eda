// Chrome trace-event export of a TelemetrySession (DESIGN.md §12): the
// timeline channel next to RunReport's aggregate metrics snapshot.
#pragma once

#include <iosfwd>

#include "telemetry/session.hpp"

namespace parsgd::report {

/// Writes a TelemetrySession's trace as Chrome trace-event JSON
/// (loadable in chrome://tracing and Perfetto): one complete ("X") event
/// per span and one instant ("i") event per marker, with thread_name
/// metadata per telemetry lane. Timestamps are microseconds since the
/// process monotonic epoch (common/clock.hpp).
void write_chrome_trace(std::ostream& os,
                        const telemetry::TelemetrySession& session);

}  // namespace parsgd::report
