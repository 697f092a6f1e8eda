// Warp-level SIMT execution (DESIGN.md §3, gpusim).
//
// Kernels in this simulator are written in explicit-SIMD style: a kernel
// body receives warps of 32 lanes and performs *warp-wide instructions* on
// Lanes<T> arrays under an active-lane mask. This style makes every effect
// the paper attributes to the GPU measurable:
//
//  * memory coalescing — loads/stores report per-lane element indices; the
//    simulator counts the distinct 128 B segments touched, exactly the
//    "aligned successive addresses are converted into a single memory
//    transaction" rule of §II;
//  * divergence — instructions are charged per warp regardless of how many
//    lanes are active, so masked-off lanes waste issue slots
//    (divergence_waste). Variable-length sparse rows force shrinking masks,
//    reproducing the lane-stall effect of §IV-B;
//  * shared-memory bank conflicts — 32 banks of 4 B words, replays counted
//    per additional distinct word per bank;
//  * atomic serialization — lanes of one warp atomically updating the same
//    address replay serially, the intra-warp model-update conflicts that
//    throttle GPU Hogwild.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "gpusim/device.hpp"
#include "hwmodel/spec.hpp"

namespace parsgd::gpusim {

inline constexpr int kWarpSize = 32;
using LaneMask = std::uint32_t;
inline constexpr LaneMask kFullMask = 0xffffffffu;

/// Per-lane register file entry: one value per lane of a warp.
template <typename T>
using Lanes = std::array<T, kWarpSize>;

/// Builds a mask with the first n lanes active.
inline LaneMask first_lanes(int n) {
  PARSGD_DCHECK(n >= 0 && n <= kWarpSize);
  return n == kWarpSize ? kFullMask : ((LaneMask(1) << n) - 1);
}

inline bool lane_active(LaneMask m, int lane) { return (m >> lane) & 1u; }
inline int active_count(LaneMask m) { return std::popcount(m); }

/// Cost accumulated by one warp during a kernel.
struct WarpCost {
  double issue_cycles = 0;
  double global_transactions = 0;  ///< 128 B segments, not L2-resident
  double l2_transactions = 0;      ///< segments served from L2
  double mem_bytes = 0;
  double shared_cycles = 0;
  double shared_accesses = 0;
  double bank_conflict_replays = 0;
  double atomic_cycles = 0;
  double atomic_ops = 0;
  double atomic_conflicts = 0;
  double flops = 0;
  double divergence_waste = 0;

  WarpCost& operator+=(const WarpCost& o) {
    issue_cycles += o.issue_cycles;
    global_transactions += o.global_transactions;
    l2_transactions += o.l2_transactions;
    mem_bytes += o.mem_bytes;
    shared_cycles += o.shared_cycles;
    shared_accesses += o.shared_accesses;
    bank_conflict_replays += o.bank_conflict_replays;
    atomic_cycles += o.atomic_cycles;
    atomic_ops += o.atomic_ops;
    atomic_conflicts += o.atomic_conflicts;
    flops += o.flops;
    divergence_waste += o.divergence_waste;
    return *this;
  }
};

/// Block-scoped scratchpad array ("shared memory"). Allocated through
/// BlockCtx so the launch can enforce the per-SM capacity and compute
/// occupancy.
template <typename T>
class SharedArray {
 public:
  explicit SharedArray(std::size_t n) : data_(n) {}
  std::size_t size() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(T); }
  T* raw() { return data_.data(); }
  const T* raw() const { return data_.data(); }

 private:
  std::vector<T> data_;
};

/// One warp's execution context. All methods charge cycles to cost().
class WarpCtx {
 public:
  WarpCtx(const GpuSpec& spec, int block_idx, int warp_idx, int lanes)
      : spec_(&spec), block_idx_(block_idx), warp_idx_(warp_idx),
        lanes_(lanes) {
    PARSGD_DCHECK(lanes >= 1 && lanes <= kWarpSize);
  }

  int block_idx() const { return block_idx_; }
  int warp_idx() const { return warp_idx_; }
  /// Threads that exist in this warp (last warp of a block may be partial).
  int lane_count() const { return lanes_; }
  LaneMask full_mask() const { return first_lanes(lanes_); }

  /// `instructions` warp-wide ALU/FMA instructions, each doing
  /// `flops_per_lane` useful flops on the lanes active in `mask`.
  void arith(LaneMask mask, double instructions = 1,
             double flops_per_lane = 1) {
    cost_.issue_cycles += instructions * spec_->cycles_arith;
    cost_.flops += instructions * flops_per_lane * active_count(mask);
    cost_.divergence_waste +=
        instructions * (kWarpSize - active_count(mask));
  }

  /// Gathers buf[idx[lane]] for active lanes. One warp instruction; memory
  /// transactions counted by distinct 128 B segments across active lanes.
  template <typename T>
  Lanes<T> load(const DeviceBuffer<T>& buf, const Lanes<std::uint32_t>& idx,
                LaneMask mask) {
    Lanes<T> out{};
    charge_memory(reinterpret_cast<std::uintptr_t>(buf.raw()), idx, mask,
                  sizeof(T), buf.bytes());
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      PARSGD_DCHECK(idx[l] < buf.size(), "lane " << l << " idx " << idx[l]);
      out[l] = buf.raw()[idx[l]];
    }
    return out;
  }

  /// Scatters v[lane] to buf[idx[lane]] for active lanes. Last-writer-wins
  /// on duplicate addresses (the plain-store race semantics of real HW).
  template <typename T>
  void store(DeviceBuffer<T>& buf, const Lanes<std::uint32_t>& idx,
             const Lanes<T>& v, LaneMask mask) {
    charge_memory(reinterpret_cast<std::uintptr_t>(buf.raw()), idx, mask,
                  sizeof(T), buf.bytes());
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      PARSGD_DCHECK(idx[l] < buf.size());
      buf.raw()[idx[l]] = v[l];
    }
  }

  /// atomicAdd per active lane. Lanes hitting the same address serialize
  /// (replayed), which is how intra-warp model-update conflicts cost time.
  /// All lanes' addends are applied (atomics do not lose updates).
  template <typename T>
  void atomic_add(DeviceBuffer<T>& buf, const Lanes<std::uint32_t>& idx,
                  const Lanes<T>& v, LaneMask mask) {
    cost_.issue_cycles += spec_->cycles_arith;
    Lanes<std::uint32_t> addrs{};
    int active = 0;
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      PARSGD_DCHECK(idx[l] < buf.size());
      buf.raw()[idx[l]] += v[l];
      addrs[active++] = idx[l];
    }
    if (active == 0) return;
    const DistinctCount c = count_distinct(addrs, active);
    cost_.atomic_ops += active;
    cost_.atomic_conflicts += active - c.distinct;
    // The warp's atomic instruction replays once per worst-case address
    // multiplicity; also touches memory segments like a scatter.
    cost_.atomic_cycles += spec_->cycles_atomic * c.max_multiplicity;
    charge_memory(reinterpret_cast<std::uintptr_t>(buf.raw()), idx, mask,
                  sizeof(T), buf.bytes());
  }

  /// Shared-memory gather with bank-conflict replays (32 banks, 4 B words).
  template <typename T>
  Lanes<T> shared_load(const SharedArray<T>& arr,
                       const Lanes<std::uint32_t>& idx, LaneMask mask) {
    Lanes<T> out{};
    charge_shared(idx, mask, sizeof(T));
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      PARSGD_DCHECK(idx[l] < arr.size());
      out[l] = arr.raw()[idx[l]];
    }
    return out;
  }

  template <typename T>
  void shared_store(SharedArray<T>& arr, const Lanes<std::uint32_t>& idx,
                    const Lanes<T>& v, LaneMask mask) {
    charge_shared(idx, mask, sizeof(T));
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      PARSGD_DCHECK(idx[l] < arr.size());
      arr.raw()[idx[l]] = v[l];
    }
  }

  /// Warp shuffle: returns src_lane's value to every active lane. Register
  /// traffic only — 1 issue cycle, no memory cost. Used by the
  /// warp-shuffling reduction optimization (§IV-B).
  template <typename T>
  Lanes<T> shfl(const Lanes<T>& v, const Lanes<std::uint32_t>& src_lane,
                LaneMask mask) {
    cost_.issue_cycles += spec_->cycles_arith;
    Lanes<T> out{};
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      PARSGD_DCHECK(src_lane[l] < static_cast<std::uint32_t>(kWarpSize));
      out[l] = v[src_lane[l]];
    }
    return out;
  }

  /// Butterfly (xor) shuffle reduction helper: sums `v` over active lanes
  /// and returns the total in every lane; charges log2(32) shuffle+add
  /// instructions.
  template <typename T>
  T reduce_sum(const Lanes<T>& v, LaneMask mask) {
    cost_.issue_cycles += 2.0 * 5 * spec_->cycles_arith;  // 5 shfl + 5 add
    cost_.flops += 5.0 * active_count(mask);
    T total{};
    for (int l = 0; l < lanes_; ++l) {
      if (lane_active(mask, l)) total += v[l];
    }
    return total;
  }

  const WarpCost& cost() const { return cost_; }
  WarpCost& mutable_cost() { return cost_; }

 private:
  /// Distinct values among v[0, n) and their largest multiplicity. Sorts
  /// that prefix in place; at most 32 values, so no allocation.
  struct DistinctCount {
    int distinct = 0;
    int max_multiplicity = 0;
  };
  template <typename T>
  static DistinctCount count_distinct(Lanes<T>& v, int n) {
    if (!std::is_sorted(v.begin(), v.begin() + n)) {
      std::sort(v.begin(), v.begin() + n);
    }
    DistinctCount c;
    int run = 0;
    for (int i = 0; i < n; ++i) {
      if (i == 0 || v[i] != v[i - 1]) {
        ++c.distinct;
        run = 0;
      }
      c.max_multiplicity = std::max(c.max_multiplicity, ++run);
    }
    return c;
  }

  void charge_memory(std::uintptr_t /*base*/, const Lanes<std::uint32_t>& idx,
                     LaneMask mask, std::size_t elem_bytes,
                     std::size_t buf_bytes) {
    cost_.issue_cycles += spec_->cycles_arith;
    // Segments are computed from element offsets within the buffer:
    // cudaMalloc guarantees >=256 B alignment, so buffer starts coincide
    // with transaction-segment boundaries.
    Lanes<std::uintptr_t> segments{};
    int active = 0;
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      segments[active++] =
          std::uintptr_t(idx[l]) * elem_bytes / spec_->transaction_bytes;
    }
    const auto n =
        static_cast<double>(count_distinct(segments, active).distinct);
    // L2 residency: buffers that fit in L2 (e.g. a small model vector)
    // hit there after first touch. For larger buffers, gathers still hit
    // partially — real workloads gather with skewed (Zipf-like) segment
    // popularity, so the hottest l2_bytes worth of segments stays cached.
    // We model the hit fraction as sqrt(l2/bytes): exact at 1 when the
    // buffer fits, decaying slowly for popularity-skewed gathers.
    if (buf_bytes <= spec_->l2_bytes) {
      cost_.l2_transactions += n;
    } else {
      const double hit =
          std::sqrt(static_cast<double>(spec_->l2_bytes) /
                    static_cast<double>(buf_bytes));
      cost_.l2_transactions += n * hit;
      cost_.global_transactions += n * (1.0 - hit);
    }
    cost_.mem_bytes += n * static_cast<double>(spec_->transaction_bytes);
  }

  void charge_shared(const Lanes<std::uint32_t>& idx, LaneMask mask,
                     std::size_t elem_bytes) {
    cost_.issue_cycles += spec_->cycles_arith;
    // Bank of a 4B word; wider T occupies multiple words (we model the
    // first word's bank, adequate for float/int32 which is all we use).
    // A bank holding k distinct words replays k - 1 times, so the replays
    // sum to distinct words minus banks touched.
    Lanes<std::uint32_t> words{};
    std::uint32_t banks = 0;
    int active = 0;
    for (int l = 0; l < lanes_; ++l) {
      if (!lane_active(mask, l)) continue;
      const std::uint32_t word =
          static_cast<std::uint32_t>(idx[l] * elem_bytes / 4);
      words[active++] = word;
      banks |= std::uint32_t(1) << (word % 32);
    }
    const double replays = static_cast<double>(
        count_distinct(words, active).distinct - std::popcount(banks));
    cost_.shared_accesses += 1 + replays;
    cost_.bank_conflict_replays += replays;
    cost_.shared_cycles += (1 + replays) * spec_->cycles_shared_access;
  }

  const GpuSpec* spec_;
  int block_idx_;
  int warp_idx_;
  int lanes_;
  WarpCost cost_;
};

}  // namespace parsgd::gpusim
