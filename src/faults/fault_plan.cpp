#include "faults/fault_plan.hpp"

#include "common/cli.hpp"

namespace parsgd {

CrashFault::CrashFault(std::size_t epoch)
    : std::runtime_error("injected crash fault at epoch " +
                         std::to_string(epoch)),
      epoch_(epoch) {}

bool FaultPlan::any() const {
  return corrupt != Corrupt::kNone || flip_epoch != kNever ||
         crash_epoch != kNever || nodedown_epoch != kNever ||
         straggler_prob > 0 || drop_prob > 0;
}

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

/// A probability in [0, 1] (NaN rejected).
bool parse_prob(const std::string& v, double* out) {
  double d = 0;
  if (!parse_double_value(v, &d) || !(d >= 0 && d <= 1)) return false;
  *out = d;
  return true;
}

/// One '+'-joined atom of the `faults=` value.
bool parse_fault_atom(const std::string& atom, FaultPlan* plan) {
  const std::size_t at = atom.find('@');
  if (at == std::string::npos || at + 1 >= atom.size()) return false;
  const std::string kind = atom.substr(0, at);
  const std::string arg = atom.substr(at + 1);
  if (kind == "nan" || kind == "inf") {
    if (plan->corrupt != FaultPlan::Corrupt::kNone) return false;
    if (!parse_count_value(arg, &plan->corrupt_step)) return false;
    plan->corrupt = kind == "nan" ? FaultPlan::Corrupt::kNan
                                  : FaultPlan::Corrupt::kInf;
    return true;
  }
  if (kind == "crash") {
    return parse_count_value(arg, &plan->crash_epoch) &&
           plan->crash_epoch != FaultPlan::kNever;
  }
  if (kind == "nodedown") {
    // nodedown@E[:K]
    const std::vector<std::string> parts = split(arg, ':');
    if (parts.empty() || parts.size() > 2) return false;
    if (!parse_count_value(parts[0], &plan->nodedown_epoch) ||
        plan->nodedown_epoch == FaultPlan::kNever) {
      return false;
    }
    if (parts.size() == 2 &&
        !parse_count_value(parts[1], &plan->nodedown_node)) {
      return false;
    }
    return true;
  }
  if (kind == "flip") {
    // flip@E[:C[:B]]
    const std::vector<std::string> parts = split(arg, ':');
    if (parts.empty() || parts.size() > 3) return false;
    if (!parse_count_value(parts[0], &plan->flip_epoch) ||
        plan->flip_epoch == FaultPlan::kNever) {
      return false;
    }
    if (parts.size() >= 2 &&
        !parse_count_value(parts[1], &plan->flip_coord)) {
      return false;
    }
    if (parts.size() == 3) {
      std::size_t bit = 0;
      if (!parse_count_value(parts[2], &bit) || bit >= 32) return false;
      plan->flip_bit = static_cast<unsigned>(bit);
    }
    return true;
  }
  return false;
}

}  // namespace

FaultKeyParse parse_fault_key(const std::string& key,
                              const std::string& value, FaultPlan* plan) {
  if (key == "faults") {
    if (value.empty()) return FaultKeyParse::kMalformed;
    for (const std::string& atom : split(value, '+')) {
      if (!parse_fault_atom(atom, plan)) return FaultKeyParse::kMalformed;
    }
    return FaultKeyParse::kParsed;
  }
  if (key == "straggler") {
    // P or P@U
    const std::size_t at = value.find('@');
    const std::string prob = value.substr(0, at);
    if (!parse_prob(prob, &plan->straggler_prob)) {
      return FaultKeyParse::kMalformed;
    }
    if (at != std::string::npos) {
      if (!parse_count_value(value.substr(at + 1), &plan->straggler_units) ||
          plan->straggler_units == 0) {
        return FaultKeyParse::kMalformed;
      }
    }
    return FaultKeyParse::kParsed;
  }
  if (key == "drop") {
    return parse_prob(value, &plan->drop_prob) ? FaultKeyParse::kParsed
                                               : FaultKeyParse::kMalformed;
  }
  return FaultKeyParse::kNotFault;
}

std::vector<std::string> format_fault_options(const FaultPlan& plan) {
  std::vector<std::string> out;
  if (plan.drop_prob > 0) {
    std::string d = "drop=";
    d += format_double_value(plan.drop_prob);
    out.push_back(std::move(d));
  }
  std::vector<std::string> atoms;
  if (plan.corrupt != FaultPlan::Corrupt::kNone) {
    std::string a = plan.corrupt == FaultPlan::Corrupt::kNan ? "nan@"
                                                             : "inf@";
    a += std::to_string(plan.corrupt_step);
    atoms.push_back(std::move(a));
  }
  if (plan.flip_epoch != FaultPlan::kNever) {
    std::string a = "flip@";
    a += std::to_string(plan.flip_epoch);
    if (plan.flip_coord != 0 || plan.flip_bit != 30) {
      a += ':';
      a += std::to_string(plan.flip_coord);
      if (plan.flip_bit != 30) {
        a += ':';
        a += std::to_string(plan.flip_bit);
      }
    }
    atoms.push_back(std::move(a));
  }
  if (plan.crash_epoch != FaultPlan::kNever) {
    std::string a = "crash@";
    a += std::to_string(plan.crash_epoch);
    atoms.push_back(std::move(a));
  }
  if (plan.nodedown_epoch != FaultPlan::kNever) {
    std::string a = "nodedown@";
    a += std::to_string(plan.nodedown_epoch);
    if (plan.nodedown_node != 0) {
      a += ':';
      a += std::to_string(plan.nodedown_node);
    }
    atoms.push_back(std::move(a));
  }
  if (!atoms.empty()) {
    std::string joined = "faults=";
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) joined += '+';
      joined += atoms[i];
    }
    out.push_back(joined);
  }
  // A non-default delay bound is kept even at P = 0 (straggler=0@8), so
  // the option list round-trips through parse_fault_key.
  if (plan.straggler_prob > 0 || plan.straggler_units != 4) {
    std::string s = "straggler=";
    s += format_double_value(plan.straggler_prob);
    if (plan.straggler_units != 4) {
      s += '@';
      s += std::to_string(plan.straggler_units);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace parsgd
