#include "asyncsim/replication.hpp"

#include <algorithm>

#include "asyncsim/conflict_ledger.hpp"
#include "common/check.hpp"

namespace parsgd {

const char* to_string(Replication r) {
  switch (r) {
    case Replication::kPerMachine: return "PerMachine";
    case Replication::kPerNode: return "PerNode";
    case Replication::kPerCore: return "PerCore";
  }
  return "?";
}

namespace {

// Hogwild loop bookkeeping constants — same calibration as AsyncSim.
constexpr double kLoopFlopsPerExample = 600.0;
constexpr double kLoopFlopsPerNnz = 16.0;

// A PerNode replica is only contended by same-socket workers, whose line
// transfers stay on the local ring (~35% of the cross-socket RFO cost the
// coherency model charges). Expressed as a conflict-count discount so the
// downstream CpuModel conversion keeps a single penalty constant.
constexpr double kIntraSocketDiscount = 0.35;

}  // namespace

ReplicatedHogwild::ReplicatedHogwild(const Model& model,
                                     const TrainData& data,
                                     const ReplicationOptions& opts)
    : model_(model), data_(data), opts_(opts) {
  PARSGD_CHECK(model.sparse_updates(),
               "replication strategies are for linear models");
  PARSGD_CHECK(opts_.workers >= 1 && opts_.sockets >= 1);
  PARSGD_CHECK(opts_.sync_interval >= 1);
  switch (opts_.strategy) {
    case Replication::kPerMachine: replicas_ = 1; break;
    case Replication::kPerNode:
      replicas_ = static_cast<std::size_t>(opts_.sockets);
      break;
    case Replication::kPerCore:
      replicas_ = static_cast<std::size_t>(opts_.workers);
      break;
  }
}

void ReplicatedHogwild::average_into(
    std::span<real_t> w, std::vector<std::vector<real_t>>& views) const {
  const std::size_t dim = model_.dim();
  for (std::size_t j = 0; j < dim; ++j) {
    double acc = 0;
    for (const auto& v : views) acc += v[j];
    w[j] = static_cast<real_t>(acc / static_cast<double>(views.size()));
  }
  for (auto& v : views) std::copy(w.begin(), w.end(), v.begin());
}

CostBreakdown ReplicatedHogwild::run_epoch(std::span<real_t> w,
                                           real_t alpha, Rng& rng) {
  PARSGD_CHECK(w.size() == model_.dim());
  CostBreakdown cost;
  const std::size_t n = data_.n();
  const std::size_t dim = model_.dim();
  const int workers = opts_.workers;

  // Replica views, all seeded from the authoritative model.
  std::vector<std::vector<real_t>> views(
      replicas_, std::vector<real_t>(w.begin(), w.end()));
  auto replica_of = [&](int worker) -> std::size_t {
    switch (opts_.strategy) {
      case Replication::kPerMachine: return 0;
      case Replication::kPerNode:
        // Contiguous worker blocks per socket (first-touch affinity).
        return static_cast<std::size_t>(worker) * opts_.sockets /
               std::max(1, workers);
      default: return static_cast<std::size_t>(worker);
    }
  };

  // Shuffled global order; workers round-robin, each touching its
  // replica. Conflicts are counted per replica: only workers *sharing* a
  // replica contend for its cache lines.
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);

  // PerCore replicas have a single writer each and never conflict, so
  // they keep no ledger.
  std::vector<ConflictLedger> ledgers(
      opts_.strategy == Replication::kPerCore ? 0 : replicas_,
      ConflictLedger(dim));
  auto flush_conflicts = [&] {
    for (ConflictLedger& ledger : ledgers) {
      cost.write_conflicts += ledger.conflicts();
      ledger.clear();
    }
  };
  std::vector<index_t> touched;

  std::size_t since_sync = 0;
  double averagings = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int worker = static_cast<int>(i % workers);
    const std::size_t r = replica_of(worker);
    const ExampleView x = data_.example(order[i], opts_.prefer_dense);
    model_.example_step(x, data_.y[order[i]], alpha, views[r], views[r],
                        &touched);
    if (!ledgers.empty()) ledgers[r].record(worker, touched);

    const std::size_t k = x.touched();
    cost.flops += model_.step_flops(k) + kLoopFlopsPerExample +
                  kLoopFlopsPerNnz * static_cast<double>(k);
    cost.model_reads += static_cast<double>(k);
    cost.model_writes += static_cast<double>(touched.size());
    cost.bytes_random +=
        static_cast<double>(k + touched.size()) * sizeof(real_t);
    cost.bytes_streamed += static_cast<double>(k) *
                           (sizeof(real_t) + sizeof(index_t));

    if (++since_sync >= opts_.sync_interval) {
      since_sync = 0;
      // Conflict windows flush on the same cadence for every strategy so
      // the counts are comparable.
      flush_conflicts();
      if (replicas_ > 1) {
        average_into(w, views);
        averagings += 1;
        // Averaging traffic: every replica streams the model both ways.
        cost.bytes_streamed +=
            2.0 * static_cast<double>(replicas_) * dim * sizeof(real_t);
        cost.flops += static_cast<double>(replicas_) * dim;
      }
    }
  }

  flush_conflicts();
  if (opts_.strategy == Replication::kPerNode) {
    cost.write_conflicts *= kIntraSocketDiscount;
  }
  if (replicas_ > 1) {
    average_into(w, views);
  } else {
    std::copy(views[0].begin(), views[0].end(), w.begin());
  }
  (void)averagings;
  return cost;
}

}  // namespace parsgd
