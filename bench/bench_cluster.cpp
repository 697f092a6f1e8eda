// Cluster crossover sweep (DESIGN.md §17): sharded SGD across simulated
// nodes, parameter-server (async head) vs ring all-reduce (sync head),
// over nodes={1,2,4,8} on the Table II/III linear-task datasets.
//
// The paper's sync/async crossover, extended to the network axis:
// all-reduce pays the interconnect on the critical path of every update
// (2(N-1) chunked phases), so its sec/epoch grows with N once the wire
// dominates the shrinking per-node compute; PS overlaps the wire behind
// the bounded-delay queue, keeping sec/epoch nearly flat, but staleness
// tau = (N-1) + D_net grows with the cluster and is paid in
// epochs-to-threshold. The stored BENCH_cluster.json baseline captures
// where the time-to-convergence winner flips.
//
//   ./bench_cluster [--scale=400] [--epochs=30] [--alpha=0.5] [--quick]
//                   [--datasets=covtype,w8a] [--link=10us:10gbps]
//                   [--report-dir=DIR] [--no-report]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/table.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "report/report.hpp"
#include "sgd/cluster_engine.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"

using namespace parsgd;

namespace {

struct Cell {
  std::string label;
  EngineSpec spec;
  RunResult run;
  report::ClusterSlice slice;
};

report::ClusterSlice slice_of(const Engine& engine) {
  report::ClusterSlice s;
  const auto* ce = dynamic_cast<const ClusterEngine*>(&engine);
  if (ce == nullptr) return s;
  s.nodes = static_cast<double>(ce->nodes());
  s.sync = to_string(ce->sync());
  s.link_latency_us = ce->net().link().latency_us;
  s.link_bandwidth_gbps = ce->net().link().bandwidth_gbps;
  s.net_messages = ce->last_cost().net_messages;
  s.net_bytes = ce->last_cost().net_bytes;
  s.net_seconds = ce->last_net_seconds();
  s.stale_units = ce->last_stats().stale_units;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const double scale = cli.get_double("scale", quick ? 500.0 : 400.0);
  const std::size_t epochs =
      static_cast<std::size_t>(cli.get_int("epochs", quick ? 20 : 30));
  const double alpha = cli.get_double("alpha", 0.5);
  const std::string link = cli.get("link", "10us:10gbps");
  const std::string datasets_arg = cli.get("datasets", "covtype,w8a");

  std::printf("=== cluster sweep: PS vs all-reduce, nodes=1..8 ===\n");
  std::printf("datasets scaled 1/%.0f in N; link %s; times modeled for the "
              "paper's CPU at paper-scale N.\n\n",
              scale, link.c_str());

  report::RunReport rep("cluster");
  rep.scale = scale;
  rep.threads = 56;
  rep.seed = 7;

  double host_secs = 0;
  const std::size_t node_grid[] = {1, 2, 4, 8};
  {
    ScopedTimer host_timer(&host_secs);
    for (const std::string& name : {std::string("covtype"),
                                    std::string("w8a")}) {
      if (datasets_arg.find(name) == std::string::npos) continue;
      const Dataset ds = generate_dataset(
          name, GeneratorOptions{.seed = 5, .scale = scale});
      LogisticRegression lr(ds.d());
      EngineContext ctx = make_engine_context(ds, lr, Layout::kSparse);
      rep.datasets.push_back(report::DatasetInfo::from(ds));
      const std::vector<real_t> w0 = lr.init_params(5);

      std::vector<Cell> cells;
      for (const char* sync : {"ps", "allreduce"}) {
        const bool ps = std::string(sync) == "ps";
        for (const std::size_t nodes : node_grid) {
          const std::string spec_text =
              std::string(ps ? "async" : "sync") +
              "/cluster/sparse:batch=64,link=" + link +
              ",nodes=" + std::to_string(nodes);
          Cell c;
          c.spec = parse_spec(spec_text);
          c.label = "LR/" + name + "/" + sync + "/n" +
                    std::to_string(nodes);
          const std::unique_ptr<Engine> engine = make_engine(c.spec, ctx);
          TrainOptions t;
          t.max_epochs = epochs;
          c.run = run_training(*engine, lr, ctx.data, w0,
                               static_cast<real_t>(alpha), t);
          c.slice = slice_of(*engine);
          cells.push_back(std::move(c));
        }
      }

      // Convergence reference: the sweep's own optimum, shared by every
      // cluster shape so epochs-to-threshold are comparable across cells.
      std::vector<RunResult> runs;
      runs.reserve(cells.size());
      for (const Cell& c : cells) runs.push_back(c.run);
      const double optimum = optimal_loss(runs);

      std::printf("LR / %s  (alpha=%g, batch=64, %zu epochs, optimum %.6g)\n",
                  name.c_str(), alpha, epochs, optimum);
      std::printf("  %-14s %12s %12s %12s %12s\n", "config", "sec/epoch",
                  "ep->1%", "ttc-1%", "net s/ep");
      for (Cell& c : cells) {
        report::Entry e;
        e.label = c.label;
        e.task = "LR";
        e.dataset = name;
        e.spec = format_spec(c.spec);
        e.alpha = alpha;
        e.diverged = c.run.diverged;
        e.axes = report::Axes::from(c.run, optimum);
        e.cluster = c.slice;
        std::printf("  %-14s %12s %12s %12s %12s\n",
                    (c.slice.sync + "/n" +
                     std::to_string(static_cast<int>(c.slice.nodes)))
                        .c_str(),
                    fmt_sec(e.axes.sec_per_epoch).c_str(),
                    e.axes.epochs_to_1pct < 0
                        ? "inf"
                        : std::to_string(
                              static_cast<int>(e.axes.epochs_to_1pct))
                              .c_str(),
                    e.axes.ttc_1pct < 0 ? "inf"
                                        : fmt_sec(e.axes.ttc_1pct).c_str(),
                    fmt_sec(c.slice.net_seconds).c_str());
        rep.add_entry(std::move(e));
      }

      // The headline: who wins time-to-convergence at each cluster size.
      std::printf("  1%% winner by nodes:");
      for (std::size_t i = 0; i < std::size(node_grid); ++i) {
        const report::Entry* ps_e = rep.find("LR/" + name + "/ps/n" +
                                             std::to_string(node_grid[i]));
        const report::Entry* ar_e = rep.find(
            "LR/" + name + "/allreduce/n" + std::to_string(node_grid[i]));
        PARSGD_CHECK(ps_e != nullptr && ar_e != nullptr);
        const double tp = ps_e->axes.ttc_1pct < 0 ? 1e300
                                                  : ps_e->axes.ttc_1pct;
        const double ta = ar_e->axes.ttc_1pct < 0 ? 1e300
                                                  : ar_e->axes.ttc_1pct;
        std::printf(" n%zu:%s", node_grid[i],
                    tp <= ta ? "ps" : "allreduce");
      }
      std::printf("\n\n");
    }
  }

  rep.host_seconds = host_secs;
  std::printf("host wall time: %.2fs\n", host_secs);
  if (!cli.get_bool("no-report", false)) {
    const std::string path = report::emit(rep, cli.get("report-dir", ""));
    std::printf("report: %s\n", path.c_str());
  }
  return 0;
}
