// Per-kernel statistics produced by the SIMT simulator, plus the cycle
// attribution that explains a kernel's modeled time in terms of the four
// Fig. 1 cost classes (memory / compute / atomic-conflict / divergence).
#pragma once

#include <cstdint>

#include "hwmodel/spec.hpp"

namespace parsgd::gpusim {

/// Work and conflict counters for one kernel launch (or an aggregate of
/// launches). `sm_cycles` is the modeled wall time of the launch in GPU
/// cycles (max over SMs), excluding host launch overhead.
struct KernelStats {
  double sm_cycles = 0;          ///< modeled kernel duration, cycles
  double issue_cycles = 0;       ///< total warp-instruction issue cycles
  double mem_transactions = 0;   ///< 128 B global-memory segments moved
  double mem_bytes = 0;          ///< bytes in those segments
  double shared_accesses = 0;    ///< shared-memory access slots (with
                                 ///  bank-conflict replays included)
  double bank_conflict_replays = 0;
  double atomic_ops = 0;         ///< atomic instructions issued
  double atomic_conflicts = 0;   ///< lanes serialized behind another lane
  double atomic_serial_cycles = 0;  ///< cycles spent in that serialization
  double flops = 0;              ///< useful floating-point work
  double divergence_waste = 0;   ///< lane-cycles lost to inactive lanes
  double blocks = 0;
  double warps = 0;
  double launches = 0;

  KernelStats& operator+=(const KernelStats& o) {
    sm_cycles += o.sm_cycles;
    issue_cycles += o.issue_cycles;
    mem_transactions += o.mem_transactions;
    mem_bytes += o.mem_bytes;
    shared_accesses += o.shared_accesses;
    bank_conflict_replays += o.bank_conflict_replays;
    atomic_ops += o.atomic_ops;
    atomic_conflicts += o.atomic_conflicts;
    atomic_serial_cycles += o.atomic_serial_cycles;
    flops += o.flops;
    divergence_waste += o.divergence_waste;
    blocks += o.blocks;
    warps += o.warps;
    launches += o.launches;
    return *this;
  }
  bool operator==(const KernelStats&) const = default;
};

/// Modeled cycles of a kernel split by root cause. The classes are the
/// scheduling model's own terms (gpusim/launch.cpp): issue-slot pressure,
/// memory-pipeline segment slots, atomic serialization, and issue slots
/// wasted on masked-off lanes. Compute and memory overlap in the model
/// (per-SM time takes their max), so the attribution explains *pressure*,
/// not additive wall time — the right lens for "why is this kernel slow".
struct CycleAttribution {
  double memory_cycles = 0;
  double compute_cycles = 0;
  double atomic_cycles = 0;
  double divergence_cycles = 0;
};

inline CycleAttribution attribute_cycles(const GpuSpec& spec,
                                         const KernelStats& s) {
  CycleAttribution a;
  a.memory_cycles = s.mem_transactions * spec.cycles_global_transaction;
  a.compute_cycles = s.issue_cycles / spec.warp_schedulers_per_sm;
  a.atomic_cycles = s.atomic_serial_cycles;
  a.divergence_cycles = s.divergence_waste /
                        static_cast<double>(spec.warp_size) /
                        spec.warp_schedulers_per_sm;
  return a;
}

}  // namespace parsgd::gpusim
