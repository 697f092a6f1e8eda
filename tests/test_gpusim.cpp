#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/warp.hpp"

namespace parsgd::gpusim {
namespace {

GpuSpec spec() { return paper_gpu(); }

Lanes<std::uint32_t> iota_lanes(std::uint32_t start = 0,
                                std::uint32_t stride = 1) {
  Lanes<std::uint32_t> l{};
  for (int i = 0; i < kWarpSize; ++i) l[i] = start + stride * i;
  return l;
}

TEST(Device, TracksAllocations) {
  Device dev(spec());
  {
    DeviceBuffer<float> buf(dev, 1024);
    EXPECT_EQ(dev.allocated(), 1024 * sizeof(float));
  }
  EXPECT_EQ(dev.allocated(), 0u);
}

TEST(Device, OutOfMemoryThrows) {
  GpuSpec s = spec();
  s.global_bytes = 1024;
  Device dev(s);
  EXPECT_THROW(DeviceBuffer<float> buf(dev, 1024), CheckError);
  EXPECT_TRUE(dev.fits(256));
  EXPECT_FALSE(dev.fits(2048));
}

TEST(DeviceBuffer, UploadDownloadTracked) {
  Device dev(spec());
  std::vector<float> host = {1, 2, 3, 4};
  DeviceBuffer<float> buf(dev, std::span<const float>(host));
  EXPECT_EQ(buf.host_at(2), 3.0f);
  EXPECT_EQ(dev.transfer_bytes(), 4 * sizeof(float));
  std::vector<float> back(4);
  buf.download(back);
  EXPECT_EQ(back, host);
  EXPECT_EQ(dev.transfer_bytes(), 8 * sizeof(float));
}

TEST(Warp, CoalescedLoadIsOneTransaction) {
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 64);
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  // 32 consecutive floats = 128 B = exactly one segment.
  (void)warp.load(buf, iota_lanes(), kFullMask);
  EXPECT_EQ(warp.cost().l2_transactions +
                warp.cost().global_transactions,
            1.0);
}

TEST(Warp, StridedLoadScattersIntoManyTransactions) {
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 32 * 64);
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  // Stride 64 floats = 256 B apart: each lane its own 128 B segment.
  (void)warp.load(buf, iota_lanes(0, 64), kFullMask);
  EXPECT_EQ(warp.cost().l2_transactions +
                warp.cost().global_transactions,
            32.0);
}

TEST(Warp, LargeBufferUsesGlobalSmallUsesL2) {
  Device dev(spec());
  DeviceBuffer<float> small(dev, 256);  // well under 1.5 MB L2
  DeviceBuffer<float> big(dev, (2u << 20));
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  (void)warp.load(small, iota_lanes(), kFullMask);
  EXPECT_EQ(warp.cost().l2_transactions, 1.0);
  EXPECT_EQ(warp.cost().global_transactions, 0.0);
  // A buffer larger than L2 splits its transactions: the Zipf-hot
  // fraction sqrt(l2/bytes) hits L2, the rest goes to DRAM.
  (void)warp.load(big, iota_lanes(), kFullMask);
  const double hit = std::sqrt(
      static_cast<double>(spec().l2_bytes) / big.bytes());
  EXPECT_NEAR(warp.cost().global_transactions, 1.0 - hit, 1e-9);
  EXPECT_NEAR(warp.cost().l2_transactions, 1.0 + hit, 1e-9);
}

TEST(Warp, MaskedLanesDontTouchMemory) {
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 64);
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  Lanes<std::uint32_t> idx{};  // all zero: out-of-range lanes masked off
  (void)warp.load(buf, idx, 0x1u);
  EXPECT_EQ(warp.cost().l2_transactions, 1.0);
}

TEST(Warp, DivergenceWasteCharged) {
  Device dev(spec());
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  warp.arith(first_lanes(8), 10, 1);  // 8 of 32 lanes active
  EXPECT_DOUBLE_EQ(warp.cost().divergence_waste, 10.0 * 24);
  EXPECT_DOUBLE_EQ(warp.cost().flops, 10.0 * 8);
  EXPECT_DOUBLE_EQ(warp.cost().issue_cycles, 10.0);
}

TEST(Warp, StoreWritesThrough) {
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 64);
  buf.fill(0);
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  Lanes<float> vals{};
  for (int i = 0; i < kWarpSize; ++i) vals[i] = static_cast<float>(i);
  warp.store(buf, iota_lanes(), vals, kFullMask);
  EXPECT_EQ(buf.host_at(5), 5.0f);
}

TEST(Warp, AtomicAddAppliesAllLanes) {
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 64);
  buf.fill(0);
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  Lanes<std::uint32_t> idx{};  // all lanes hit index 0
  Lanes<float> vals{};
  for (int i = 0; i < kWarpSize; ++i) vals[i] = 1.0f;
  warp.atomic_add(buf, idx, vals, kFullMask);
  EXPECT_EQ(buf.host_at(0), 32.0f);  // atomics never lose updates
  EXPECT_DOUBLE_EQ(warp.cost().atomic_conflicts, 31.0);
  // Full serialization: 32 replays of the atomic.
  EXPECT_DOUBLE_EQ(warp.cost().atomic_cycles,
                   spec().cycles_atomic * 32);
}

TEST(Warp, AtomicAddConflictFree) {
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 64);
  buf.fill(0);
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  Lanes<float> vals{};
  for (int i = 0; i < kWarpSize; ++i) vals[i] = 2.0f;
  warp.atomic_add(buf, iota_lanes(), vals, kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_conflicts, 0.0);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_cycles, spec().cycles_atomic);
  EXPECT_EQ(buf.host_at(3), 2.0f);
}

TEST(Warp, AtomicAddLanePairsReplayTwice) {
  // Lanes 2k and 2k+1 share address k: 16 addresses, each hit twice.
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 64);
  buf.fill(0);
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  Lanes<std::uint32_t> idx{};
  Lanes<float> vals{};
  for (int i = 0; i < kWarpSize; ++i) {
    idx[i] = static_cast<std::uint32_t>(i / 2);
    vals[i] = 1.0f;
  }
  warp.atomic_add(buf, idx, vals, kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_ops, 32.0);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_conflicts, 16.0);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_cycles, 2 * spec().cycles_atomic);
  EXPECT_EQ(buf.host_at(15), 2.0f);
  // 16 floats = 64 B: one segment.
  EXPECT_DOUBLE_EQ(warp.cost().l2_transactions, 1.0);
}

TEST(Warp, PartialMaskDuplicatesShareASegment) {
  // Active lanes 3, 9, 17, 30 hit floats {5, 5, 7, 31}: all in the first
  // 128 B segment. Inactive lanes point far away and must not count.
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 32 * 64);
  buf.fill(0);
  Lanes<std::uint32_t> idx = iota_lanes(0, 64);
  idx[3] = 5;
  idx[9] = 5;
  idx[17] = 7;
  idx[30] = 31;
  const LaneMask mask = (1u << 3) | (1u << 9) | (1u << 17) | (1u << 30);
  WarpCtx loader(dev.spec(), 0, 0, kWarpSize);
  (void)loader.load(buf, idx, mask);
  EXPECT_DOUBLE_EQ(loader.cost().l2_transactions, 1.0);

  WarpCtx atomics(dev.spec(), 0, 0, kWarpSize);
  Lanes<float> ones{};
  ones.fill(1.0f);
  atomics.atomic_add(buf, idx, ones, mask);
  EXPECT_DOUBLE_EQ(atomics.cost().atomic_ops, 4.0);
  EXPECT_DOUBLE_EQ(atomics.cost().atomic_conflicts, 1.0);  // lanes 3 and 9
  EXPECT_DOUBLE_EQ(atomics.cost().atomic_cycles, 2 * spec().cycles_atomic);
  EXPECT_DOUBLE_EQ(atomics.cost().l2_transactions, 1.0);
  EXPECT_EQ(buf.host_at(5), 2.0f);
  EXPECT_EQ(buf.host_at(64), 0.0f);  // lane 1's target, masked off
}

TEST(Warp, PartialWarpIgnoresMissingLanes) {
  // A 20-lane warp under the full mask: lanes 20-31 do not exist, so
  // their (scattered, colliding) indices never count.
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 32 * 64);
  buf.fill(0);
  Lanes<std::uint32_t> idx = iota_lanes();
  for (int i = 20; i < kWarpSize; ++i) idx[i] = 64u * i;
  WarpCtx warp(dev.spec(), 0, 0, 20);
  (void)warp.load(buf, idx, kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().l2_transactions, 1.0);

  Lanes<std::uint32_t> same{};  // lanes 20-31 would all collide on 0
  for (int i = 0; i < 20; ++i) same[i] = static_cast<std::uint32_t>(i + 1);
  Lanes<float> ones{};
  ones.fill(1.0f);
  warp.atomic_add(buf, same, ones, kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_ops, 20.0);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_conflicts, 0.0);
  EXPECT_DOUBLE_EQ(warp.cost().atomic_cycles, spec().cycles_atomic);
  EXPECT_EQ(buf.host_at(0), 0.0f);

  SharedArray<float> arr(1024);
  (void)warp.shared_load(arr, iota_lanes(0, 32), kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().bank_conflict_replays, 19.0);  // not 31
}

TEST(Warp, BroadcastPlusBankConflictReplaysOnce) {
  // Lanes 0-29 broadcast word 0; lanes 30 and 31 read words 32 and 1.
  // Bank 0 holds two distinct words (0 and 32) -> exactly one replay;
  // bank 1 holds one word.
  Device dev(spec());
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  SharedArray<float> arr(64);
  Lanes<std::uint32_t> idx{};
  idx[30] = 32;
  idx[31] = 1;
  (void)warp.shared_load(arr, idx, kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().bank_conflict_replays, 1.0);
  EXPECT_DOUBLE_EQ(warp.cost().shared_accesses, 2.0);
  EXPECT_DOUBLE_EQ(warp.cost().shared_cycles,
                   2 * spec().cycles_shared_access);
}

TEST(Warp, SharedMemoryBankConflicts) {
  Device dev(spec());
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  SharedArray<float> arr(1024);
  // Stride-32 float indexing: every lane hits bank 0 with a distinct word
  // -> 31 replays.
  (void)warp.shared_load(arr, iota_lanes(0, 32), kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().bank_conflict_replays, 31.0);
  // Conflict-free: consecutive words.
  WarpCtx warp2(dev.spec(), 0, 0, kWarpSize);
  (void)warp2.shared_load(arr, iota_lanes(), kFullMask);
  EXPECT_DOUBLE_EQ(warp2.cost().bank_conflict_replays, 0.0);
}

TEST(Warp, BroadcastSameWordIsConflictFree) {
  // All lanes reading the same shared word broadcast without replay.
  Device dev(spec());
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  SharedArray<float> arr(64);
  Lanes<std::uint32_t> idx{};  // all zero
  (void)warp.shared_load(arr, idx, kFullMask);
  EXPECT_DOUBLE_EQ(warp.cost().bank_conflict_replays, 0.0);
}

TEST(Warp, ShflMovesRegisters) {
  Device dev(spec());
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  Lanes<float> v{};
  for (int i = 0; i < kWarpSize; ++i) v[i] = static_cast<float>(i);
  Lanes<std::uint32_t> src{};
  for (int i = 0; i < kWarpSize; ++i) src[i] = 0;  // broadcast lane 0
  const auto out = warp.shfl(v, src, kFullMask);
  EXPECT_EQ(out[17], 0.0f);
  EXPECT_EQ(warp.cost().global_transactions, 0.0);
}

TEST(Warp, ReduceSum) {
  Device dev(spec());
  WarpCtx warp(dev.spec(), 0, 0, kWarpSize);
  Lanes<float> v{};
  for (int i = 0; i < kWarpSize; ++i) v[i] = 1.0f;
  EXPECT_EQ(warp.reduce_sum(v, kFullMask), 32.0f);
  EXPECT_EQ(warp.reduce_sum(v, first_lanes(5)), 5.0f);
}

TEST(Launch, RunsEveryBlock) {
  Device dev(spec());
  std::vector<int> hits(20, 0);
  launch(dev, {20, 64}, [&](BlockCtx& blk) {
    hits[blk.block_idx()]++;
    EXPECT_EQ(blk.num_warps(), 2);
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(dev.totals().launches, 1.0);
  EXPECT_EQ(dev.totals().blocks, 20.0);
}

TEST(Launch, PartialWarp) {
  Device dev(spec());
  launch(dev, {1, 40}, [&](BlockCtx& blk) {
    ASSERT_EQ(blk.num_warps(), 2);
    EXPECT_EQ(blk.warp(0).lane_count(), 32);
    EXPECT_EQ(blk.warp(1).lane_count(), 8);
  });
}

TEST(Launch, CyclesMaxOverSms) {
  // 13 equal blocks on 13 SMs should take ~1 block-time; 14 blocks wrap
  // to one SM running two and take ~2x.
  Device dev(spec());
  auto body = [&](BlockCtx& blk) { blk.warp(0).arith(kFullMask, 1000, 1); };
  const KernelStats s13 = launch(dev, {13, 32}, body);
  const KernelStats s14 = launch(dev, {14, 32}, body);
  EXPECT_NEAR(s14.sm_cycles / s13.sm_cycles, 2.0, 0.2);
}

TEST(Launch, MoreParallelBlocksFasterThanOne) {
  Device dev(spec());
  // Same total work in 1 block vs 26 blocks.
  const KernelStats one = launch(dev, {1, 32}, [&](BlockCtx& blk) {
    blk.warp(0).arith(kFullMask, 26000, 1);
  });
  const KernelStats many = launch(dev, {26, 32}, [&](BlockCtx& blk) {
    blk.warp(0).arith(kFullMask, 1000, 1);
  });
  EXPECT_LT(many.sm_cycles, one.sm_cycles / 4);
}

TEST(Launch, LowOccupancyExposesLatency) {
  // One warp per block cannot hide memory latency; 16 warps per block can.
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 4u << 20);
  auto body = [&](BlockCtx& blk) {
    for (int w = 0; w < blk.num_warps(); ++w) {
      for (int rep = 0; rep < 4; ++rep) {
        (void)blk.warp(w).load(buf, iota_lanes(0, 64), kFullMask);
      }
    }
  };
  const KernelStats lonely = launch(dev, {13, 32}, body);
  const KernelStats packed = launch(dev, {13, 512}, body);
  // Packed does 16x the transactions; if latency were equally exposed it
  // would be ~16x slower. Latency hiding should make it clearly better.
  EXPECT_LT(packed.sm_cycles, lonely.sm_cycles * 10);
}

TEST(Launch, SharedAllocationLimitEnforced) {
  Device dev(spec());
  EXPECT_THROW(launch(dev, {1, 32},
                      [&](BlockCtx& blk) {
                        (void)blk.alloc_shared<float>(20000);  // 80 KB
                      }),
               CheckError);
}

TEST(Launch, SyncChargesWarps) {
  Device dev(spec());
  const KernelStats s = launch(dev, {1, 64}, [&](BlockCtx& blk) {
    blk.sync();
  });
  EXPECT_GT(s.issue_cycles, 0.0);
}

TEST(LaunchAnalytic, MatchesScheduleShape) {
  Device dev(spec());
  AnalyticKernel k;
  k.warp_instructions = 1e6;
  k.flops = 32e6;
  k.global_bytes = 1e8;
  k.blocks = 1024;
  k.block_threads = 128;
  const KernelStats s = launch_analytic(dev, k);
  EXPECT_GT(s.sm_cycles, 0.0);
  EXPECT_NEAR(s.flops, 32e6, 1.0);
  EXPECT_NEAR(s.mem_transactions, 1e8 / 128, 1.0);
  EXPECT_EQ(s.launches, 1.0);
  // Device accumulated it.
  EXPECT_EQ(dev.totals().launches, 1.0);
}

TEST(LaunchAnalytic, BandwidthBoundMatchesSpec) {
  // A purely memory-bound kernel should take ~bytes / device bandwidth.
  Device dev(spec());
  AnalyticKernel k;
  k.global_bytes = 2.4e9;  // 10 ms at 240 GB/s
  k.blocks = 13 * 64;
  k.block_threads = 256;
  const KernelStats s = launch_analytic(dev, k);
  const double seconds = s.sm_cycles / (spec().clock_ghz * 1e9);
  EXPECT_NEAR(seconds, 2.4e9 / 240e9, 0.3 * 0.01);
}

TEST(Device, SecondsIncludesLaunchOverhead) {
  Device dev(spec());
  launch(dev, {1, 32}, [](BlockCtx&) {});
  EXPECT_GE(dev.seconds(),
            spec().cycles_kernel_launch / (spec().clock_ghz * 1e9));
  dev.reset_stats();
  EXPECT_EQ(dev.seconds(), 0.0);
}

TEST(Device, NamedKernelStatsAccumulateAndSurviveReset) {
  Device dev(spec());
  auto body = [&](BlockCtx& blk) { blk.warp(0).arith(kFullMask, 100, 1); };
  launch(dev, {1, 32, "alpha"}, body);
  launch(dev, {1, 32, "alpha"}, body);
  launch(dev, {1, 32, "beta"}, body);
  launch(dev, {1, 32}, body);  // unnamed -> "kernel" bucket
  ASSERT_EQ(dev.named_stats().size(), 3u);
  EXPECT_EQ(dev.named_stats().at("alpha").launches, 2.0);
  EXPECT_EQ(dev.named_stats().at("beta").launches, 1.0);
  EXPECT_EQ(dev.named_stats().at("kernel").launches, 1.0);
  // reset_stats clears the time accounting but keeps the per-kernel
  // attribution (reports harvest it after an epoch-timing reset).
  dev.reset_stats();
  EXPECT_EQ(dev.totals().launches, 0.0);
  EXPECT_EQ(dev.named_stats().at("alpha").launches, 2.0);
}

TEST(Device, CycleAttributionCoversTheCostClasses) {
  Device dev(spec());
  DeviceBuffer<float> buf(dev, 1u << 20);
  buf.fill(0);
  Lanes<float> ones{};
  for (int i = 0; i < kWarpSize; ++i) ones[i] = 1.0f;
  const KernelStats s = launch(dev, {4, 64, "mix"}, [&](BlockCtx& blk) {
    for (int w = 0; w < blk.num_warps(); ++w) {
      WarpCtx& warp = blk.warp(w);
      warp.arith(kFullMask, 200, 1);
      (void)warp.load(buf, iota_lanes(), kFullMask);
      // All lanes hit index 0: fully serialized atomic.
      warp.atomic_add(buf, Lanes<std::uint32_t>{}, ones, kFullMask);
    }
  });
  const CycleAttribution attr = attribute_cycles(spec(), s);
  EXPECT_GT(attr.compute_cycles, 0.0);
  EXPECT_GT(attr.memory_cycles, 0.0);
  EXPECT_GT(attr.atomic_cycles, 0.0);  // the serialized atomic lanes
  EXPECT_EQ(s.atomic_serial_cycles, attr.atomic_cycles);
}

}  // namespace
}  // namespace parsgd::gpusim
