// Micro-benchmarks of the SIMT simulator itself: simulation throughput
// (host-side cost per simulated element) and the modeled cycle counts of
// the kernel library, exported as counters.
#include <benchmark/benchmark.h>

#include "asyncsim/gpu_hogwild.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "gpusim/kernels.hpp"
#include "models/linear.hpp"

namespace parsgd::gpusim {
namespace {

void BM_SimReduce(benchmark::State& state) {
  Device dev(paper_gpu());
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<real_t> host(n, 1.0f);
  DeviceBuffer<real_t> data(dev, host);
  KernelStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_sum(dev, data, &stats));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.counters["modeled_cycles"] = benchmark::Counter(stats.sm_cycles);
}
BENCHMARK(BM_SimReduce)->Arg(1 << 12)->Arg(1 << 16);

void BM_SimHistogram(benchmark::State& state) {
  Device dev(paper_gpu());
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::uint32_t> host(n);
  for (auto& v : host) v = static_cast<std::uint32_t>(rng.uniform_index(64));
  DeviceBuffer<std::uint32_t> values(dev, host);
  KernelStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram(dev, values, 64, &stats));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.counters["modeled_cycles"] = benchmark::Counter(stats.sm_cycles);
  state.counters["atomic_conflicts"] =
      benchmark::Counter(stats.atomic_conflicts);
}
BENCHMARK(BM_SimHistogram)->Arg(1 << 12)->Arg(1 << 15);

void BM_SimTranspose(benchmark::State& state) {
  Device dev(paper_gpu());
  const auto edge = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  DenseMatrix in(edge, edge);
  for (auto& v : in.data()) v = static_cast<real_t>(rng.normal());
  KernelStats stats;
  const bool padded = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpose(dev, in, padded, &stats));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edge * edge));
  state.counters["modeled_cycles"] = benchmark::Counter(stats.sm_cycles);
  state.counters["bank_replays"] =
      benchmark::Counter(stats.bank_conflict_replays);
}
BENCHMARK(BM_SimTranspose)
    ->Args({128, 1})
    ->Args({128, 0})
    ->Args({256, 1});

// First epoch of a fresh GpuHogwild on news at the quick benches' scale:
// the warp replay of the Hogwild kernel (coalescing, intra-warp atomic
// conflicts) plus one functional epoch — the host cost a Table III GPU
// LR row pays once per engine.
void BM_GpuHogwildInstrument(benchmark::State& state) {
  const Dataset ds =
      generate_dataset("news", GeneratorOptions{.seed = 42, .scale = 400.0});
  TrainData data;
  data.sparse = &ds.x;
  data.y = ds.y;
  const LogisticRegression lr(ds.d());
  const std::vector<real_t> w0 = lr.init_params(1);
  CostBreakdown cost;
  for (auto _ : state) {
    Device dev(paper_gpu());
    GpuHogwild hog(lr, data, dev, GpuHogwildOptions{});
    std::vector<real_t> w = w0;
    Rng rng(7);
    cost = hog.run_epoch(w, real_t(0.01), rng);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.n()));
  state.counters["modeled_cycles"] = benchmark::Counter(cost.gpu_cycles);
  state.counters["atomic_conflicts"] =
      benchmark::Counter(cost.write_conflicts);
}
BENCHMARK(BM_GpuHogwildInstrument)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parsgd::gpusim

BENCHMARK_MAIN();
