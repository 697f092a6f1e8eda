// Micro-benchmarks of the fault-injection seam (DESIGN.md §11): the
// per-update cost of the injector hooks — inactive (the tax every engine
// pays on the baseline path, which must be a branch and nothing else) and
// active — plus whole Hogwild epochs with and without an installed (armed,
// never crossed) plan.
#include <benchmark/benchmark.h>

#include <vector>

#include "asyncsim/async_sim.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "faults/injector.hpp"
#include "models/linear.hpp"

namespace parsgd {
namespace {

void BM_InactiveAfterUpdate(benchmark::State& state) {
  FaultInjector faults;  // no plan installed: every hook is a no-op
  std::vector<real_t> w(1024, real_t(0.5));
  for (auto _ : state) {
    faults.after_update(w);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_InactiveAfterUpdate);

void BM_ActiveAfterUpdate(benchmark::State& state) {
  FaultPlan plan;
  plan.corrupt = FaultPlan::Corrupt::kNan;
  plan.corrupt_step = ~std::size_t{0};  // armed but never crossed
  FaultInjector faults;
  faults.install(plan);
  std::vector<real_t> w(1024, real_t(0.5));
  for (auto _ : state) {
    faults.after_update(w);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_ActiveAfterUpdate);

void run_hogwild_epoch(benchmark::State& state, bool faulted) {
  const Dataset ds = generate_dataset(
      "real-sim", GeneratorOptions{.seed = 3, .scale = 200.0});
  TrainData data;
  data.sparse = &ds.x;
  data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
  data.y = ds.y;
  LogisticRegression lr(ds.d());
  AsyncSimOptions opts;
  opts.workers = 8;
  AsyncSim sim(lr, data, opts);
  FaultInjector faults;
  if (faulted) {
    FaultPlan plan;
    plan.corrupt = FaultPlan::Corrupt::kNan;
    plan.corrupt_step = ~std::size_t{0};  // armed but never crossed
    faults.install(plan);
  }
  auto w = lr.init_params(1);
  Rng rng(7);
  for (auto _ : state) {
    sim.run_epoch(w, real_t(0.01), rng, faulted ? &faults : nullptr);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.n()));
}

void BM_HogwildEpochBaseline(benchmark::State& state) {
  run_hogwild_epoch(state, false);
}
BENCHMARK(BM_HogwildEpochBaseline);

void BM_HogwildEpochWithPlan(benchmark::State& state) {
  run_hogwild_epoch(state, true);
}
BENCHMARK(BM_HogwildEpochWithPlan);

}  // namespace
}  // namespace parsgd

BENCHMARK_MAIN();
