// GPU kernel lab: program the SIMT simulator directly. Writes the same
// reduction three ways — uncoalesced gather, coalesced load, and
// shared-memory staging with a warp-shuffle reduction — and prints the
// transaction/conflict/cycle ledgers, making the §II architecture
// discussion of the paper tangible.
//
//   ./gpu_kernel_lab [--elements=65536]
#include <cstdio>
#include <numeric>

#include "common/cli.hpp"
#include "gpusim/device.hpp"
#include "matrix/types.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/warp.hpp"
#include "hwmodel/spec.hpp"

using namespace parsgd;
using namespace parsgd::gpusim;

namespace {

void report(const char* label, const KernelStats& s, double sum,
            double expect) {
  std::printf("%-28s sum=%-12.0f %-8s cycles=%-10.0f transactions=%-8.0f "
              "bank-replays=%-6.0f divergence=%.0f\n",
              label, sum, sum == expect ? "OK" : "WRONG", s.sm_cycles,
              s.mem_transactions, s.bank_conflict_replays,
              s.divergence_waste);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.exit_on_unknown_flag({"elements"});
  const auto n = static_cast<std::size_t>(cli.get_int("elements", 65536));
  Device dev(paper_gpu());

  std::vector<real_t> host(n, 1.0f);
  DeviceBuffer<real_t> data(dev, std::span<const real_t>(host));
  const double expect = static_cast<double>(n);

  const int kThreads = 256;
  const int warps_per_block = kThreads / kWarpSize;
  const int blocks =
      static_cast<int>((n + kThreads - 1) / kThreads);

  // Variant 1: strided (uncoalesced) access — lane l of warp w reads
  // element l*warps + w, so the 32 lanes touch 32 distinct segments.
  double sum1 = 0;
  const KernelStats s1 = launch(dev, {blocks, kThreads}, [&](BlockCtx& blk) {
    for (int wi = 0; wi < blk.num_warps(); ++wi) {
      auto& warp = blk.warp(wi);
      const std::size_t base =
          (static_cast<std::size_t>(blk.block_idx()) * warps_per_block + wi);
      Lanes<std::uint32_t> idx{};
      LaneMask mask = 0;
      const std::size_t total_warps =
          static_cast<std::size_t>(blocks) * warps_per_block;
      for (int l = 0; l < kWarpSize; ++l) {
        const std::size_t e = base + static_cast<std::size_t>(l) * total_warps;
        if (e < n) {
          idx[l] = static_cast<std::uint32_t>(e);
          mask |= LaneMask(1) << l;
        }
      }
      const auto v = warp.load(data, idx, mask);
      sum1 += warp.reduce_sum(v, mask);
    }
  });
  report("strided gather", s1, sum1, expect);

  // Variant 2: coalesced — consecutive lanes read consecutive elements.
  double sum2 = 0;
  const KernelStats s2 = launch(dev, {blocks, kThreads}, [&](BlockCtx& blk) {
    for (int wi = 0; wi < blk.num_warps(); ++wi) {
      auto& warp = blk.warp(wi);
      const std::size_t base =
          (static_cast<std::size_t>(blk.block_idx()) * warps_per_block + wi) *
          kWarpSize;
      Lanes<std::uint32_t> idx{};
      LaneMask mask = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        if (base + l < n) {
          idx[l] = static_cast<std::uint32_t>(base + l);
          mask |= LaneMask(1) << l;
        }
      }
      const auto v = warp.load(data, idx, mask);
      sum2 += warp.reduce_sum(v, mask);
    }
  });
  report("coalesced load", s2, sum2, expect);

  // Variant 3: coalesced load staged through shared memory, then reduced —
  // the canonical pattern; note the conflict-free bank layout.
  double sum3 = 0;
  const KernelStats s3 = launch(dev, {blocks, kThreads}, [&](BlockCtx& blk) {
    auto tile = blk.alloc_shared<real_t>(kThreads);
    for (int wi = 0; wi < blk.num_warps(); ++wi) {
      auto& warp = blk.warp(wi);
      const std::size_t base =
          (static_cast<std::size_t>(blk.block_idx()) * warps_per_block + wi) *
          kWarpSize;
      Lanes<std::uint32_t> gidx{}, sidx{};
      LaneMask mask = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        if (base + l < n) {
          gidx[l] = static_cast<std::uint32_t>(base + l);
          sidx[l] = static_cast<std::uint32_t>(wi * kWarpSize + l);
          mask |= LaneMask(1) << l;
        }
      }
      warp.shared_store(tile, sidx, warp.load(data, gidx, mask), mask);
    }
    blk.sync();
    for (int wi = 0; wi < blk.num_warps(); ++wi) {
      auto& warp = blk.warp(wi);
      Lanes<std::uint32_t> sidx{};
      LaneMask mask = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        const std::size_t e =
            static_cast<std::size_t>(blk.block_idx()) * kThreads +
            wi * kWarpSize + l;
        if (e < n) {
          sidx[l] = static_cast<std::uint32_t>(wi * kWarpSize + l);
          mask |= LaneMask(1) << l;
        }
      }
      const auto v = warp.shared_load(tile, sidx, mask);
      sum3 += warp.reduce_sum(v, mask);
    }
  });
  report("shared-memory staging", s3, sum3, expect);

  std::printf("\ncoalescing speedup (strided/coalesced cycles): %.1fx\n",
              s1.sm_cycles / s2.sm_cycles);
  std::printf("device totals: %.0f launches, %s transferred\n",
              dev.totals().launches,
              std::to_string(dev.transfer_bytes()).c_str());
  return 0;
}
