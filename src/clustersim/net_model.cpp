#include "clustersim/net_model.hpp"

#include <cmath>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "common/cli.hpp"

namespace parsgd {

namespace {

/// "<number><unit>" for one of `units` ({suffix, scale} pairs, longest
/// suffix first): the whole-value parsed number times the unit's scale.
/// False on an unknown unit, a malformed number, or a scaled value that is
/// neither zero nor a normal double (so format_link_spec reads back).
bool parse_with_unit(
    const std::string& v,
    std::initializer_list<std::pair<std::string_view, double>> units,
    double* out) {
  for (const auto& [suffix, scale] : units) {
    if (v.size() <= suffix.size() ||
        v.compare(v.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    double x = 0;
    if (!parse_double_value(v.substr(0, v.size() - suffix.size()), &x)) {
      return false;
    }
    *out = x * scale;
    return *out == 0 || std::isnormal(*out);
  }
  return false;
}

}  // namespace

std::optional<LinkSpec> parse_link_spec(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return std::nullopt;
  LinkSpec link;
  if (!parse_with_unit(text.substr(0, colon),
                       {{"us", 1.0}, {"ms", 1e3}, {"s", 1e6}},
                       &link.latency_us) ||
      !(link.latency_us >= 0)) {
    return std::nullopt;
  }
  if (!parse_with_unit(text.substr(colon + 1),
                       {{"gbps", 1.0}, {"mbps", 1e-3}},
                       &link.bandwidth_gbps) ||
      !(link.bandwidth_gbps > 0)) {
    return std::nullopt;
  }
  return link;
}

std::string format_link_spec(const LinkSpec& link) {
  return format_double_value(link.latency_us) + "us:" +
         format_double_value(link.bandwidth_gbps) + "gbps";
}

double NetModel::ps_epoch_seconds(std::size_t nodes, double total_bytes,
                                  double messages,
                                  std::size_t queue_depth) const {
  if (messages <= 0 && total_bytes <= 0) return 0;
  const double inflight = static_cast<double>(
      std::max<std::size_t>(nodes, 1) * std::max<std::size_t>(queue_depth, 1));
  return total_bytes / bytes_per_second() +
         latency_seconds() * messages / inflight;
}

double NetModel::allreduce_seconds(std::size_t nodes, double bytes) const {
  if (nodes <= 1) return 0;
  const double phases = 2.0 * static_cast<double>(nodes - 1);
  const double chunk = bytes / static_cast<double>(nodes);
  return phases * (latency_seconds() + chunk / bytes_per_second());
}

}  // namespace parsgd
