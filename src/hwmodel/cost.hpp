// CostBreakdown — the architecture-neutral work ledger every engine
// accumulates while executing (DESIGN.md §5). The hwmodel converts a
// breakdown into seconds for a named architecture; gpusim fills gpu_cycles
// directly from its SIMT timing model.
//
// The reproduction host has a few cores (4) and no GPU — far from the
// paper's 56-thread, K80 testbed — so multi-thread/GPU hardware efficiency
// cannot be wall-clocked; it is *modeled* from these counters, while
// statistical efficiency is always measured (real runs).
#pragma once

#include <cstdint>

namespace parsgd {

struct CostBreakdown {
  double flops = 0;            ///< floating-point operations
  double bytes_streamed = 0;   ///< sequentially-scanned bytes (data passes)
  double bytes_random = 0;     ///< randomly-accessed bytes (model gather)
  double model_reads = 0;      ///< scalar model-entry reads
  double model_writes = 0;     ///< scalar model-entry writes
  double write_conflicts = 0;  ///< same-index concurrent writes observed
  double kernel_launches = 0;  ///< GPU kernel launches
  double gpu_cycles = 0;       ///< SIMT cycles charged by gpusim

  CostBreakdown& operator+=(const CostBreakdown& o) {
    flops += o.flops;
    bytes_streamed += o.bytes_streamed;
    bytes_random += o.bytes_random;
    model_reads += o.model_reads;
    model_writes += o.model_writes;
    write_conflicts += o.write_conflicts;
    kernel_launches += o.kernel_launches;
    gpu_cycles += o.gpu_cycles;
    return *this;
  }

  friend CostBreakdown operator+(CostBreakdown a, const CostBreakdown& b) {
    a += b;
    return a;
  }

  /// Scales every counter (used to extrapolate a scaled-N run to the
  /// paper-scale N; per-example costs are scale-invariant).
  CostBreakdown scaled(double factor) const {
    CostBreakdown c = *this;
    c.flops *= factor;
    c.bytes_streamed *= factor;
    c.bytes_random *= factor;
    c.model_reads *= factor;
    c.model_writes *= factor;
    c.write_conflicts *= factor;
    c.kernel_launches *= factor;
    c.gpu_cycles *= factor;
    return c;
  }

  void reset() { *this = CostBreakdown{}; }
};

}  // namespace parsgd
