#include "models/model.hpp"

namespace parsgd {

double Model::dataset_loss(const TrainData& data, std::span<const real_t> w,
                           bool prefer_dense, ThreadPool* pool) const {
  return sum_examples(
      data.n(), pool, [&](std::size_t lo, std::size_t hi, double* out) {
        example_losses(data, lo, hi, prefer_dense, w, out);
      });
}

void Model::example_losses(const TrainData& data, std::size_t begin,
                           std::size_t end, bool prefer_dense,
                           std::span<const real_t> w, double* out) const {
  for (std::size_t i = begin; i < end; ++i) {
    out[i - begin] = example_loss(data.example(i, prefer_dense), data.y[i], w);
  }
}

TaskGraph::TaskId Model::batch_step_graph(
    TaskGraph& graph, BatchGraphScratch& scratch, const TrainData& data,
    std::size_t begin, std::size_t end, bool prefer_dense, real_t alpha,
    std::span<const real_t> w_read, std::span<real_t> w_write,
    TaskGraph::TaskId after) const {
  // Default: the whole batch as one task, bit-identical to batch_step.
  // Even undecomposed this removes the per-batch fork-join barrier —
  // consecutive batches chain on the dependency edge alone.
  (void)scratch;
  const TrainData* dp = &data;
  return graph.add(
      [this, dp, begin, end, prefer_dense, alpha, w_read, w_write] {
        batch_step(*dp, begin, end, prefer_dense, alpha, w_read, w_write);
      },
      {after}, "batch_step");
}

}  // namespace parsgd
