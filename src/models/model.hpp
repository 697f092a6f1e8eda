// Model abstraction: LR, SVM and MLP implement three views of the same
// objective (paper §III):
//  * a full-batch epoch expressed in linalg primitives (Algorithm 2 —
//    synchronous SGD; parallelism lives inside the primitives);
//  * a per-example incremental step (Algorithm 3 — the Hogwild unit of
//    work), with explicit read-model / write-model spans so asyncsim can
//    interpose stale snapshots and count write conflicts;
//  * a mini-batch step (the Hogbatch unit of work for MLP, §IV-B).
//
// Models are stateless with respect to parameters: the flat parameter
// vector is always passed in, because asynchronous simulation needs
// several concurrent copies (global model + per-worker snapshots).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hwmodel/cost.hpp"
#include "linalg/backend.hpp"
#include "matrix/example_view.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

/// Reusable buffers for batch_step_graph: per-chunk partial gradients (and
/// per-chunk coefficient slices for models that stage them). One scratch
/// serves a whole epoch graph — the update-task chain guarantees at most
/// one batch's tasks are in flight, so buffers are recycled batch to
/// batch. Task bodies capture the scratch by pointer and index it at run
/// time (the outer vectors may grow while later batches are being built).
struct BatchGraphScratch {
  std::vector<std::vector<double>> partial;  ///< per-chunk dense gradients
};

/// The training input handed to engines: sparse features always, dense
/// when materialized, labels in {-1,+1}.
struct TrainData {
  const CsrMatrix* sparse = nullptr;
  const DenseMatrix* dense = nullptr;  ///< may be null
  std::span<const real_t> y;

  std::size_t n() const { return sparse ? sparse->rows() : dense->rows(); }
  std::size_t d() const { return sparse ? sparse->cols() : dense->cols(); }

  bool has_dense() const { return dense != nullptr; }

  ExampleView example(std::size_t i, bool prefer_dense) const {
    if (prefer_dense && dense) return ExampleView::dense(dense->row(i));
    PARSGD_DCHECK(sparse != nullptr);
    return ExampleView::sparse(sparse->row(i));
  }
};

/// The margin pass of a full-batch linear sync epoch, carried from the
/// loss evaluation of w_{k+1} into epoch k+1 (DESIGN.md §9): the loss of
/// w_{k+1} (dataset_loss's value), the next epoch's per-example
/// coefficients and, for sparse rows, the compact view w_J. run_training
/// owns one per call and hands it to the engine; only SyncEngine's
/// full-batch epochs of a LinearModel stage one. Empty (both matrix
/// pointers null) after clear(); whoever writes w clears it. A carried
/// sparse epoch updates w_J only, so w lags it over J until settle():
/// whoever reads w between epochs settles first.
struct EpochCarry {
  /// The matrix the margins were read from: exactly one is non-null
  /// while the carry is valid.
  const CsrMatrix* sparse = nullptr;
  const DenseMatrix* dense = nullptr;
  double loss = 0;          ///< loss of the current w, summed in index order
  std::vector<real_t> coef;  ///< d loss / d z_i at the current w
  /// The current w over the touched columns J of `sparse`, in
  /// column_bands().cols order; valid while the carry is and `sparse` is
  /// set. The sparse margin pass reads it instead of w, and the update
  /// writes it instead of w. A cleared carry gathers it again.
  std::vector<real_t> w_J;
  /// Non-null while w over this matrix's J holds older values than w_J.
  /// The carried update skips w: writing it would touch one cache line
  /// of w per touched column each epoch, from whichever worker draws the
  /// band.
  const CsrMatrix* w_lags = nullptr;

  /// Drops the margins and w_J's lead: for a w that was just rewritten.
  void clear() {
    sparse = nullptr;
    dense = nullptr;
    w_lags = nullptr;
  }
  /// Brings w up to date over J (w[cols[p]] = w_J[p]) if it lags w_J.
  void settle(std::span<real_t> w) {
    if (w_lags == nullptr) return;
    const std::span<const index_t> cols = w_lags->column_bands().cols;
    for (std::size_t p = 0; p < cols.size(); ++p) w[cols[p]] = w_J[p];
    w_lags = nullptr;
  }
  /// True when the carry holds the margins dataset_loss(data, w,
  /// prefer_dense) would compute: same rows, same layout.
  bool matches(const TrainData& data, bool prefer_dense) const {
    return prefer_dense && data.has_dense()
               ? dense != nullptr && dense == data.dense
               : sparse != nullptr && sparse == data.sparse;
  }
};

class Model {
 public:
  virtual ~Model() = default;

  virtual std::string name() const = 0;
  /// Flat parameter count.
  virtual std::size_t dim() const = 0;
  /// Deterministic parameter initialization (same across configurations,
  /// per the paper's methodology: identical initial model and loss).
  virtual std::vector<real_t> init_params(std::uint64_t seed) const = 0;

  /// Loss of one example under parameters w.
  virtual double example_loss(const ExampleView& x, real_t y,
                              std::span<const real_t> w) const = 0;

  /// Total loss over the dataset (double accumulation; not timed —
  /// the paper excludes loss evaluation from iteration time). With a
  /// pool that has workers, the per-example losses are evaluated on it
  /// and then summed in index order, so the total is bit-identical to
  /// the serial sum; otherwise it runs serially on the caller. Each chunk
  /// of examples goes through example_losses.
  double dataset_loss(const TrainData& data, std::span<const real_t> w,
                      bool prefer_dense, ThreadPool* pool = nullptr) const;

  /// Losses of examples [begin, end) of `data` into out[0, end - begin).
  /// The default calls example_loss per example; a model with a blocked
  /// forward pass overrides it.
  virtual void example_losses(const TrainData& data, std::size_t begin,
                              std::size_t end, bool prefer_dense,
                              std::span<const real_t> w, double* out) const;

  /// Incremental SGD step: reads the model from `w_read`, writes the
  /// updated entries into `w_write` (the two may alias for plain
  /// sequential SGD). If `touched` is non-null it receives the indices of
  /// written parameters; models that write everything leave it empty and
  /// return false from sparse_updates().
  virtual void example_step(const ExampleView& x, real_t y, real_t alpha,
                            std::span<const real_t> w_read,
                            std::span<real_t> w_write,
                            std::vector<index_t>* touched) const = 0;

  /// True when example_step writes only the example's non-zero coordinates
  /// (linear models); false when it writes the whole vector (MLP).
  virtual bool sparse_updates() const = 0;

  /// Mini-batch gradient step over examples [begin, end) of `data`:
  /// gradient from `w_read`, update applied to `w_write` (Hogbatch unit).
  virtual void batch_step(const TrainData& data, std::size_t begin,
                          std::size_t end, bool prefer_dense, real_t alpha,
                          std::span<const real_t> w_read,
                          std::span<real_t> w_write) const = 0;

  /// Builds the tasks of one mini-batch step into `graph` (DESIGN.md §15)
  /// instead of executing it: gradient chunks over a *fixed* example grid,
  /// partial reductions merged in a fixed fan-in order, and one model
  /// update task. Returns the update task's id — the dependency of the
  /// next batch's gradient tasks, so consecutive batches overlap with no
  /// barrier between them. `after` (kNoTask for the first batch) orders
  /// this batch's reads of `w_read` after the previous update.
  ///
  /// Determinism contract: the decomposition depends only on (batch size,
  /// dim) — never on pool size — and merges in a fixed order, so
  /// trajectories are bit-identical across worker counts and run-to-run.
  /// Small batches fall back to one task running the sequential
  /// batch_step, bit-identical to it. The default builds that
  /// single task for every batch; models with a profitable decomposition
  /// override it. Spans captured by the tasks must stay valid until the
  /// graph runs.
  virtual TaskGraph::TaskId batch_step_graph(
      TaskGraph& graph, BatchGraphScratch& scratch, const TrainData& data,
      std::size_t begin, std::size_t end, bool prefer_dense, real_t alpha,
      std::span<const real_t> w_read, std::span<real_t> w_write,
      TaskGraph::TaskId after) const;

  /// One full-batch gradient-descent epoch (Algorithm 2) expressed in
  /// linalg primitives on `backend`. Returns the loss evaluated *before*
  /// the update, from the float margins of the forward pass (a
  /// by-product of the coefficient kernel). `use_dense` chooses dense vs
  /// sparse primitives when the data allows both. run_training instead
  /// reports dataset_loss *after* the update; for linear models SyncEngine
  /// folds that evaluation into the epoch through an EpochCarry
  /// (LinearModel's carried overload, which returns nothing: the loss it
  /// computes is the updated w's, and lives in the carry).
  virtual double sync_epoch(linalg::Backend& backend, const TrainData& data,
                            bool use_dense, real_t alpha,
                            std::span<real_t> w) const = 0;

  /// Approximate flops of one example_step (for async engine cost
  /// accounting; nnz-dependent terms use the supplied count).
  virtual double step_flops(std::size_t touched_features) const = 0;

 protected:
  /// Sums the per-example terms of [0, n) in index order.
  /// `terms(lo, hi, out)` writes the terms of examples [lo, hi) to
  /// out[0, hi - lo). With a pool that has workers the chunks are
  /// evaluated on it first (each i by exactly one chunk), so the total is
  /// bit-identical to the serial loop.
  template <class Terms>
  static double sum_examples(std::size_t n, ThreadPool* pool, Terms&& terms) {
    double total = 0;
    if (pool == nullptr || pool->size() == 0) {
      // Chunks through a stack buffer: the serial sum stays
      // allocation-free.
      constexpr std::size_t kChunk = 256;
      double buf[kChunk] = {};
      for (std::size_t lo = 0; lo < n; lo += kChunk) {
        const std::size_t len = std::min(kChunk, n - lo);
        terms(lo, lo + len, buf);
        for (std::size_t k = 0; k < len; ++k) total += buf[k];
      }
      return total;
    }
    std::vector<double> all(n);
    pool->parallel_for(n, [&](std::size_t lo, std::size_t hi) {
      terms(lo, hi, all.data() + lo);
    });
    for (const double t : all) total += t;
    return total;
  }
};

}  // namespace parsgd
