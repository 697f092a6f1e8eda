// NetModel — the per-link latency/bandwidth cost model of the cluster
// simulator (DESIGN.md §17), the network-side sibling of hwmodel. Where
// hwmodel converts a CostBreakdown's flops/bytes into seconds on the
// paper's NUMA box or K80, NetModel converts message counts and payload
// bytes into seconds on a simulated interconnect:
//
//  * parameter server: every update is one gradient push + one weight
//    pull. Round-trip latencies pipeline behind the bounded-delay queue
//    (queue_depth updates in flight per node), payload bytes serialize on
//    the server's link.
//  * ring all-reduce: one collective per model update, 2(N-1) chunked
//    phases each moving bytes/N per link (Patarasuk & Yuan's bandwidth-
//    optimal ring), every phase paying one link latency.
//
// Links are declarative spec-grammar values (`link=10us:10gbps`) with a
// canonical round-tripping string form, like every other engine knob.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace parsgd {

/// One full-duplex cluster interconnect link. Defaults model a plain
/// 10 GbE datacenter fabric.
struct LinkSpec {
  double latency_us = 10.0;      ///< one-way message latency
  double bandwidth_gbps = 10.0;  ///< per-link bandwidth (bits/s)

  bool operator==(const LinkSpec&) const = default;
};

/// Parses "10us:10gbps" (also accepts ms/s and mbps suffixes); nullopt on
/// malformed input. parse_link_spec(format_link_spec(l)) == l.
std::optional<LinkSpec> parse_link_spec(const std::string& text);

/// Canonical string form (always us and gbps).
std::string format_link_spec(const LinkSpec& link);

class NetModel {
 public:
  NetModel() = default;
  explicit NetModel(const LinkSpec& link) : link_(link) {}

  const LinkSpec& link() const { return link_; }
  double latency_seconds() const { return link_.latency_us * 1e-6; }
  /// Payload bytes per second (bandwidth_gbps is bits).
  double bytes_per_second() const { return link_.bandwidth_gbps * 1e9 / 8.0; }

  /// Parameter-server epoch: `total_bytes` of push/pull payload serialize
  /// on the server link; `messages` individual latencies pipeline
  /// `nodes * queue_depth` deep (the bounded-delay queue keeps that many
  /// updates in flight cluster-wide, so only the residual is exposed).
  double ps_epoch_seconds(std::size_t nodes, double total_bytes,
                          double messages, std::size_t queue_depth) const;

  /// One ring all-reduce of `bytes` across `nodes`: 2(N-1) phases, each
  /// moving bytes/N per link behind one link latency. 0 for N <= 1 (the
  /// reduction is local).
  double allreduce_seconds(std::size_t nodes, double bytes) const;

 private:
  LinkSpec link_{};
};

}  // namespace parsgd
