// Micro-benchmarks of the asynchrony simulator: epoch throughput and
// conflict-counting overhead as worker count and sparsity vary, with the
// measured conflict counts exported as counters (the inputs to the
// coherency model). The MLP layer benchmarks time the Hogbatch unit
// (Mlp::batch_step) and the per-epoch loss pass (Model::dataset_loss).
#include <benchmark/benchmark.h>

#include "asyncsim/async_sim.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "data/mlp_view.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"

namespace parsgd {
namespace {

struct Bench {
  Dataset ds;
  TrainData data;
  LogisticRegression lr;

  explicit Bench(const char* name)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 3, .scale = 200.0})),
        lr(ds.d()) {
    data.sparse = &ds.x;
    data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
    data.y = ds.y;
  }
};

void run_async(benchmark::State& state, const char* dataset, int workers) {
  Bench b(dataset);
  AsyncSimOptions opts;
  opts.workers = workers;
  AsyncSim sim(b.lr, b.data, opts);
  auto w = b.lr.init_params(1);
  Rng rng(7);
  double conflicts = 0, epochs = 0;
  for (auto _ : state) {
    const CostBreakdown c = sim.run_epoch(w, real_t(0.01), rng);
    conflicts += c.write_conflicts;
    epochs += 1;
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.ds.n()));
  state.counters["conflicts_per_epoch"] =
      benchmark::Counter(epochs > 0 ? conflicts / epochs : 0);
}

void BM_HogwildDense(benchmark::State& state) {
  run_async(state, "covtype", static_cast<int>(state.range(0)));
}
BENCHMARK(BM_HogwildDense)->Arg(1)->Arg(8)->Arg(56);

void BM_HogwildSparse(benchmark::State& state) {
  run_async(state, "real-sim", static_cast<int>(state.range(0)));
}
BENCHMARK(BM_HogwildSparse)->Arg(1)->Arg(8)->Arg(56);

void BM_HogwildHighDim(benchmark::State& state) {
  run_async(state, "news", static_cast<int>(state.range(0)));
}
BENCHMARK(BM_HogwildHighDim)->Arg(1)->Arg(56);

// ---- MLP layer: the Hogbatch step and the loss pass ----
// Arg(0) = covtype's 54-input net, Arg(1) = w8a's 300-input net, on the
// grouped MLP view of the dataset (dense rows, as Study runs them).

struct MlpBench {
  Dataset base;
  Dataset ds;
  Mlp mlp;
  TrainData data;

  explicit MlpBench(const char* name)
      : base(generate_dataset(name,
                              GeneratorOptions{.seed = 3, .scale = 200.0})),
        ds(make_mlp_dataset(base)),
        mlp(ds.profile.mlp_architecture()) {
    data.sparse = &ds.x;
    data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
    data.y = ds.y;
  }
};

const char* mlp_dataset(std::int64_t arg) {
  return arg == 0 ? "covtype" : "w8a";
}

void BM_MlpBatchStep(benchmark::State& state) {
  MlpBench b(mlp_dataset(state.range(0)));
  constexpr std::size_t kBatch = 64;  // Study's scaled Hogbatch floor
  auto w = b.mlp.init_params(1);
  const std::size_t n = b.data.n() / kBatch * kBatch;
  std::size_t begin = 0;
  for (auto _ : state) {
    b.mlp.batch_step(b.data, begin, begin + kBatch, true, real_t(0.01), w,
                     w);
    begin = (begin + kBatch) % n;
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_MlpBatchStep)->Arg(0)->Arg(1);

void BM_MlpDatasetLoss(benchmark::State& state) {
  MlpBench b(mlp_dataset(state.range(0)));
  const auto w = b.mlp.init_params(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.mlp.dataset_loss(b.data, w, true));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.data.n()));
}
BENCHMARK(BM_MlpDatasetLoss)->Arg(0)->Arg(1);

}  // namespace
}  // namespace parsgd

BENCHMARK_MAIN();
