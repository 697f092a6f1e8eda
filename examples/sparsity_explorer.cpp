// The study's third exploratory axis, isolated: generate a family of
// datasets that differ only in sparsity (same N, d, value distribution)
// and watch how each configuration's modeled hardware efficiency responds
// — dense favors the GPU's coalesced kernels; extreme sparsity throttles
// the CPU's gathers but also shrinks Hogwild conflicts.
//
//   ./sparsity_explorer [--n=4000] [--d=8192] [--alpha=0.1]
#include <cmath>
#include <cstdio>
#include <exception>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "models/linear.hpp"
#include "sgd/spec.hpp"

using namespace parsgd;

namespace {

Dataset make_at_sparsity(std::size_t n, std::size_t d, double density,
                         std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds;
  ds.profile.name = "synthetic";
  ds.profile.n_examples = n;
  ds.profile.n_features = d;
  ds.profile.nnz_avg = density * static_cast<double>(d);
  ds.profile.mlp_input = 50;
  ds.profile.mlp_hidden = {10, 5, 2};
  ds.ground_truth.resize(d);
  for (auto& w : ds.ground_truth) {
    w = static_cast<real_t>(rng.normal());
  }
  CsrMatrix::Builder b(d);
  ds.y.resize(n);
  std::vector<index_t> idx;
  std::vector<real_t> val;
  for (std::size_t i = 0; i < n; ++i) {
    idx.clear();
    val.clear();
    double margin = 0;
    for (index_t c = 0; c < d; ++c) {
      if (rng.uniform() < density) {
        const double v = rng.normal() / std::sqrt(density * d);
        idx.push_back(c);
        val.push_back(static_cast<real_t>(v));
        margin += v * ds.ground_truth[c];
      }
    }
    b.add_row(idx, val);
    ds.y[i] = (margin + 0.1 * rng.normal()) >= 0 ? 1 : -1;
  }
  ds.x = std::move(b).build();
  if (ds.x.dense_bytes() <= (std::size_t(256) << 20)) {
    ds.x_dense = ds.x.to_dense();
  }
  return ds;
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.exit_on_unknown_flag({"n", "d"});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 4000));
  const auto d = static_cast<std::size_t>(cli.get_int("d", 8192));

  std::printf("sparsity sweep: LR on synthetic n=%zu d=%zu\n\n", n, d);
  std::printf("%-10s %-14s %-16s %-16s %-16s %-16s\n", "density",
              "nnz/row", "sync gpu", "sync cpu-par", "async par",
              "conflicts/ep");

  for (const double density : {1.0, 0.3, 0.1, 0.03, 0.01, 0.003}) {
    const Dataset ds = make_at_sparsity(n, d, density, 77);
    LogisticRegression lr(ds.d());
    const bool dense_layout = density >= 0.5 && ds.x_dense.has_value();
    const Layout layout = dense_layout ? Layout::kDense : Layout::kSparse;
    const EngineContext ctx = make_engine_context(ds, lr, layout);
    const auto w0 = lr.init_params(3);

    auto spec_at = [&](const char* prefix) {
      EngineSpec s = parse_spec(std::string(prefix) + "/sparse");
      s.layout = layout;
      return s;
    };
    auto sync_secs = [&](const char* prefix) {
      return make_engine(spec_at(prefix), ctx)->epoch_seconds(w0);
    };
    const std::unique_ptr<Engine> async_par =
        make_engine(spec_at("async/cpu-par"), ctx);
    TrainOptions t;
    t.max_epochs = 2;
    t.prefer_dense = dense_layout;
    const RunResult r =
        run_training(*async_par, lr, ctx.data, w0, real_t(0.05), t);

    std::printf("%-10s %-14s %-16s %-16s %-16s %-16s\n",
                format_percent(density, 1).c_str(),
                format_fixed(ds.nnz_stats().avg, 1).c_str(),
                format_seconds(sync_secs("sync/gpu")).c_str(),
                format_seconds(sync_secs("sync/cpu-par")).c_str(),
                format_seconds(r.seconds_per_epoch()).c_str(),
                format_count(static_cast<std::uint64_t>(
                    async_par->last_cost().write_conflicts)).c_str());
  }
  std::printf("\n(the paper's Fig. 1 axis in one sweep: the GPU's sync "
              "advantage grows as data gets sparser, while Hogwild "
              "conflicts fade away)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sparsity_explorer: fatal: %s\n", e.what());
    return 1;
  }
}
