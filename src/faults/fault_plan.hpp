// FaultPlan — the declarative description of what should go wrong during
// a training run (DESIGN.md §11). The paper's asynchronous configurations
// already treat races, stale reads, and lost updates as the *normal*
// operating mode (HOGWILD!, Niu et al. 2011); this module makes those and
// harder failures *injectable*, so any Fig. 1 configuration can be run
// under a controlled fault and the recovery machinery (watchdog rollback,
// checkpoint/resume) can be exercised deterministically.
//
// A plan rides on the engine-spec option grammar (sgd/spec.hpp):
//
//   async/cpu-par/sparse:faults=nan@120,straggler=0.1
//   sync/cpu-seq/sparse:faults=crash@5+flip@3,drop=0.05
//
// `faults=` holds one-shot events joined by '+':
//   nan@K / inf@K   corrupt the K-th model update (0-based, run-global)
//                   with NaN / Inf,
//   flip@E[:C[:B]]  flip bit B (default 30, a float exponent bit) of
//                   weight C (default 0) at the start of epoch E,
//   crash@E         throw CrashFault at the start of epoch E (simulated
//                   process kill; pair with checkpoint/resume),
//   nodedown@E[:K]  node K (default 0) of a simulated cluster goes down
//                   for epoch E (DESIGN.md §17): the shard's updates are
//                   lost (PS) or an operator-restart stall is charged
//                   (all-reduce).
// Continuous faults are their own keys:
//   straggler=P[@U] each async unit straggles with probability P, adding
//                   a staleness delay uniform on [1, U] units (default 4),
//   drop=P          each async update is computed but dropped (lost
//                   update) with probability P.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

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

  /// One-shot weight bit flip at the start of epoch `flip_epoch`.
  std::size_t flip_epoch = kNever;
  std::size_t flip_coord = 0;
  unsigned flip_bit = 30;  ///< float exponent bit: turns ~1 into ~1e38

  /// Simulated process kill at the start of epoch `crash_epoch`.
  std::size_t crash_epoch = kNever;

  /// One-shot cluster node failure: node `nodedown_node` is down for
  /// epoch `nodedown_epoch`. Cluster engines only; a no-op elsewhere.
  std::size_t nodedown_epoch = kNever;
  std::size_t nodedown_node = 0;

  /// Straggling async units: probability and max extra staleness (units).
  double straggler_prob = 0;
  std::size_t straggler_units = 4;

  /// Lost async updates: computed, then discarded, with this probability.
  double drop_prob = 0;

  bool any() const;
  bool operator==(const FaultPlan&) const = default;
};

/// Outcome of feeding one spec-tail `key=value` option to the fault
/// grammar: not a fault key at all, consumed, or a fault key with a
/// malformed value.
enum class FaultKeyParse { kNotFault, kParsed, kMalformed };

/// Parses one spec option into `plan`. Recognized keys: "faults",
/// "straggler", "drop". Never throws — malformed values are
/// reported so try_parse_spec can reject the whole spec.
FaultKeyParse parse_fault_key(const std::string& key,
                              const std::string& value, FaultPlan* plan);

/// The plan as spec-tail fragments ("drop=0.05", "faults=nan@120+crash@9",
/// "straggler=0.1@8"), in canonical order; empty for an empty plan.
/// parse_fault_key(format_fault_options(p)) round-trips to p.
std::vector<std::string> format_fault_options(const FaultPlan& plan);

}  // namespace parsgd
