// FaultPlan — the declarative description of what should go wrong during
// a training run (DESIGN.md §11). The paper's asynchronous configurations
// already treat races, stale reads, and lost updates as their *normal*
// operating mode (HOGWILD!, Niu et al. 2011), and asyncsim models them.
// This module injects only the faults the recovery machinery exists for —
// the divergence watchdog's triggers and the checkpoint's crash — so
// rollback and resume can be exercised deterministically.
//
// A plan rides on the engine-spec option grammar (sgd/spec.hpp):
//
//   async/cpu-par/sparse:faults=nan@120
//   sync/cpu-seq/sparse:faults=inf@3+crash@5
//
// `faults=` holds one-shot events joined by '+', each kind at most once:
//   nan@K / inf@K   corrupt the K-th model update (0-based, run-global)
//                   with NaN / Inf (one of the two per plan),
//   crash@E         throw CrashFault at the start of epoch E (simulated
//                   process kill; pair with checkpoint/resume).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace parsgd {

/// Thrown by the injector at a planned crash epoch — models the process
/// dying mid-run. A checkpointed run can be resumed bit-identically after
/// catching this (the restarted process naturally runs without the fault).
class CrashFault : public std::runtime_error {
 public:
  explicit CrashFault(std::size_t epoch);
  std::size_t epoch() const { return epoch_; }

 private:
  std::size_t epoch_;
};

struct FaultPlan {
  enum class Corrupt : std::uint8_t { kNone, kNan, kInf };
  static constexpr std::size_t kNever = ~std::size_t{0};

  /// One-shot update corruption: the whole update target of run-global
  /// update step `corrupt_step` is overwritten with NaN/Inf.
  Corrupt corrupt = Corrupt::kNone;
  std::size_t corrupt_step = 0;

  /// Simulated process kill at the start of epoch `crash_epoch`.
  std::size_t crash_epoch = kNever;

  bool any() const;
  bool operator==(const FaultPlan&) const = default;
};

/// Outcome of feeding one spec-tail `key=value` option to the fault
/// grammar: not a fault key at all, consumed, or a fault key with a
/// malformed value.
enum class FaultKeyParse { kNotFault, kParsed, kMalformed };

/// Parses one spec option into `plan`. The only recognized key is
/// "faults". Never throws — malformed values (including a repeated atom
/// kind) are reported so try_parse_spec can reject the whole spec.
FaultKeyParse parse_fault_key(const std::string& key,
                              const std::string& value, FaultPlan* plan);

/// The plan as its spec-tail fragment ("faults=nan@120+crash@9"), atoms
/// in canonical order; empty for an empty plan.
/// parse_fault_key(format_fault_option(p)) round-trips to p.
std::string format_fault_option(const FaultPlan& plan);

}  // namespace parsgd
