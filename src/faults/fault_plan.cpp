#include "faults/fault_plan.hpp"

#include <vector>

#include "common/cli.hpp"

namespace parsgd {

CrashFault::CrashFault(std::size_t epoch)
    : std::runtime_error("injected crash fault at epoch " +
                         std::to_string(epoch)),
      epoch_(epoch) {}

bool FaultPlan::any() const {
  return corrupt != Corrupt::kNone || crash_epoch != kNever;
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

/// One '+'-joined atom of the `faults=` value. A kind already in the plan
/// is rejected rather than overwritten.
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
    if (plan->crash_epoch != FaultPlan::kNever) return false;
    return parse_count_value(arg, &plan->crash_epoch) &&
           plan->crash_epoch != FaultPlan::kNever;
  }
  return false;
}

}  // namespace

FaultKeyParse parse_fault_key(const std::string& key,
                              const std::string& value, FaultPlan* plan) {
  if (key != "faults") return FaultKeyParse::kNotFault;
  if (value.empty()) return FaultKeyParse::kMalformed;
  for (const std::string& atom : split(value, '+')) {
    if (!parse_fault_atom(atom, plan)) return FaultKeyParse::kMalformed;
  }
  return FaultKeyParse::kParsed;
}

std::string format_fault_option(const FaultPlan& plan) {
  std::vector<std::string> atoms;
  if (plan.corrupt != FaultPlan::Corrupt::kNone) {
    std::string a = plan.corrupt == FaultPlan::Corrupt::kNan ? "nan@"
                                                             : "inf@";
    a += std::to_string(plan.corrupt_step);
    atoms.push_back(std::move(a));
  }
  if (plan.crash_epoch != FaultPlan::kNever) {
    std::string a = "crash@";
    a += std::to_string(plan.crash_epoch);
    atoms.push_back(std::move(a));
  }
  if (atoms.empty()) return {};
  std::string joined = "faults=";
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) joined += '+';
    joined += atoms[i];
  }
  return joined;
}

}  // namespace parsgd
