#include "clustersim/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clustersim/net_model.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/cluster_engine.hpp"
#include "sgd/spec.hpp"
#include "sgd/sync_engine.hpp"

namespace parsgd {
namespace {

Dataset tiny(const char* name) {
  return generate_dataset(name, GeneratorOptions{.seed = 5, .scale = 500.0});
}

// ---- link grammar --------------------------------------------------------

TEST(NetModel, LinkSpecRoundTrips) {
  const std::optional<LinkSpec> l = parse_link_spec("10us:10gbps");
  ASSERT_TRUE(l.has_value());
  EXPECT_DOUBLE_EQ(l->latency_us, 10.0);
  EXPECT_DOUBLE_EQ(l->bandwidth_gbps, 10.0);
  EXPECT_EQ(format_link_spec(*l), "10us:10gbps");

  // Alternate units normalize into the canonical us/gbps form.
  const std::optional<LinkSpec> slow = parse_link_spec("2ms:400mbps");
  ASSERT_TRUE(slow.has_value());
  EXPECT_DOUBLE_EQ(slow->latency_us, 2000.0);
  EXPECT_DOUBLE_EQ(slow->bandwidth_gbps, 0.4);
  EXPECT_EQ(parse_link_spec(format_link_spec(*slow)), slow);
}

TEST(NetModel, MalformedLinkSpecsRejected) {
  for (const char* bad : {"", "10us", "10us:", ":10gbps", "x:y",
                          "10:10gbps", "10us:10", "-1us:10gbps",
                          "10us:0gbps", "10us:-5gbps"}) {
    EXPECT_FALSE(parse_link_spec(bad).has_value()) << bad;
  }
}

TEST(NetModel, CollectiveAndPsCosts) {
  const NetModel net(LinkSpec{10.0, 10.0});
  // One node needs no collective at all.
  EXPECT_DOUBLE_EQ(net.allreduce_seconds(1, 1e6), 0.0);
  // 2(N-1) phases: more nodes, more wire.
  EXPECT_LT(net.allreduce_seconds(2, 1e6), net.allreduce_seconds(4, 1e6));
  EXPECT_LT(net.allreduce_seconds(4, 1e6), net.allreduce_seconds(8, 1e6));
  // PS epochs cost more when more bytes cross the link.
  EXPECT_LT(net.ps_epoch_seconds(4, 1e6, 100, 4),
            net.ps_epoch_seconds(4, 2e6, 100, 4));
  EXPECT_GT(net.ps_epoch_seconds(4, 1e6, 100, 4), 0.0);
}

// ---- spec grammar --------------------------------------------------------

TEST(ClusterSpec, ParsesAndRoundTrips) {
  const EngineSpec ps =
      parse_spec("async/cluster/sparse:nodes=8,link=5us:40gbps");
  EXPECT_EQ(ps.arch, Arch::kCluster);
  EXPECT_EQ(ps.update, Update::kAsync);
  EXPECT_EQ(ps.nodes, 8u);
  EXPECT_EQ(ps.cluster_sync(), ClusterSync::kPs);
  EXPECT_DOUBLE_EQ(ps.link.latency_us, 5.0);
  EXPECT_DOUBLE_EQ(ps.link.bandwidth_gbps, 40.0);
  EXPECT_EQ(format_spec(ps), "async/cluster/sparse:link=5us:40gbps,nodes=8");
  EXPECT_EQ(parse_spec(format_spec(ps)), ps);

  // sync= and shard= are validation-only sugar: accepted when consistent
  // with the update head, never re-emitted.
  const EngineSpec ar = parse_spec(
      "sync/cluster/dense:batch=64,nodes=4,sync=allreduce,shard=data");
  EXPECT_EQ(ar.cluster_sync(), ClusterSync::kAllReduce);
  EXPECT_EQ(format_spec(ar), "sync/cluster/dense:batch=64,nodes=4");
  EXPECT_EQ(parse_spec(format_spec(ar)), ar);
  EXPECT_EQ(parse_spec("async/cluster/sparse:sync=ps").cluster_sync(),
            ClusterSync::kPs);
}

TEST(ClusterSpec, InconsistentOrMisplacedKeysRejected) {
  std::string err;
  // The strategy is tied to the update head.
  EXPECT_FALSE(try_parse_spec("async/cluster/sparse:sync=allreduce", &err));
  EXPECT_FALSE(try_parse_spec("sync/cluster/sparse:sync=ps", &err));
  EXPECT_FALSE(try_parse_spec("sync/cluster/sparse:sync=ring", &err));
  // Cluster keys need arch=cluster.
  EXPECT_FALSE(try_parse_spec("async/cpu-par/sparse:nodes=4", &err));
  EXPECT_FALSE(try_parse_spec("sync/gpu/dense:link=10us:10gbps", &err));
  EXPECT_FALSE(try_parse_spec("sync/cpu-seq/sparse:shard=data", &err));
  // Value validation.
  EXPECT_FALSE(try_parse_spec("async/cluster/sparse:nodes=0", &err));
  EXPECT_FALSE(try_parse_spec("async/cluster/sparse:nodes=2048", &err));
  EXPECT_FALSE(try_parse_spec("async/cluster/sparse:link=fast", &err));
  EXPECT_FALSE(try_parse_spec("async/cluster/sparse:shard=model", &err));
  EXPECT_FALSE(try_parse_spec("async/cluster/sparse:shard=model"));
}

// ---- determinism ---------------------------------------------------------

std::vector<double> cluster_losses(const std::string& spec_text,
                                   std::size_t pool_threads,
                                   std::size_t epochs = 3) {
  const Dataset ds = tiny("w8a");
  LogisticRegression lr(ds.d());
  EngineContext ctx = make_engine_context(ds, lr, Layout::kSparse);
  ThreadPool pool(pool_threads);
  ctx.pool = &pool;
  const std::unique_ptr<Engine> engine =
      make_engine(parse_spec(spec_text), ctx);
  TrainOptions t;
  t.max_epochs = epochs;
  const std::vector<real_t> w0 = lr.init_params(5);
  return run_training(*engine, lr, ctx.data, w0, real_t(0.1), t).losses;
}

TEST(ClusterDeterminism, PsTrajectoryInvariantAcrossHostPoolSizes) {
  // The simulated cluster shape (nodes=4) is fixed; the host pool that
  // executes it must not leak into the trajectory.
  const std::string spec = "async/cluster/sparse:nodes=4,batch=8";
  const std::vector<double> one = cluster_losses(spec, 1);
  EXPECT_EQ(one, cluster_losses(spec, 2));
  EXPECT_EQ(one, cluster_losses(spec, 8));
  ASSERT_EQ(one.size(), 3u);
}

TEST(ClusterDeterminism, AllReduceTrajectoryInvariantAcrossHostPoolSizes) {
  const std::string spec = "sync/cluster/sparse:nodes=4,batch=8";
  const std::vector<double> one = cluster_losses(spec, 1);
  EXPECT_EQ(one, cluster_losses(spec, 2));
  EXPECT_EQ(one, cluster_losses(spec, 8));
}

TEST(ClusterDeterminism, SingleNodeAllReduceMatchesSyncEngine) {
  // Data-parallel sync SGD computes the same global gradient for any N;
  // at N=1 the cluster engine must be bit-identical to the plain sync
  // engine (the trajectory is delegated, not re-implemented).
  const std::vector<double> cluster =
      cluster_losses("sync/cluster/sparse:nodes=1,batch=8", 4);
  const std::vector<double> plain =
      cluster_losses("sync/cpu-par/sparse:batch=8", 4);
  EXPECT_EQ(cluster, plain);
}

// ---- nodedown fault ------------------------------------------------------

struct NodedownRun {
  std::vector<double> losses;
  std::size_t node_downs = 0;
};

NodedownRun nodedown_run(const std::string& spec_text) {
  const Dataset ds = tiny("w8a");
  LogisticRegression lr(ds.d());
  EngineContext ctx = make_engine_context(ds, lr, Layout::kSparse);
  const std::unique_ptr<Engine> engine =
      make_engine(parse_spec(spec_text), ctx);
  TrainOptions t;
  t.max_epochs = 3;
  const std::vector<real_t> w0 = lr.init_params(5);
  NodedownRun out;
  out.losses =
      run_training(*engine, lr, ctx.data, w0, real_t(0.1), t).losses;
  out.node_downs = engine->fault_injector().counters().node_downs;
  return out;
}

TEST(ClusterNodedown, ParameterServerLosesTheShardsUpdates) {
  const std::string clean = "async/cluster/sparse:nodes=4,batch=8";
  const std::vector<double> reference = cluster_losses(clean, 4);
  // The down node's updates are lost for the epoch.
  const NodedownRun lost = nodedown_run(clean + ",faults=nodedown@1:2");
  EXPECT_EQ(lost.node_downs, 1u);
  EXPECT_NE(lost.losses, reference);
}

TEST(ClusterNodedown, AllReduceKeepsTrajectoryAndCounts) {
  const std::string clean = "sync/cluster/sparse:nodes=4,batch=8";
  const std::vector<double> reference = cluster_losses(clean, 4);
  // Sharding is a cost concept under all-reduce: the collective stalls
  // until the node is back, and the trajectory survives the fault.
  const NodedownRun down = nodedown_run(clean + ",faults=nodedown@1");
  EXPECT_EQ(down.losses, reference);
  EXPECT_EQ(down.node_downs, 1u);
}

// ---- cost model shape ----------------------------------------------------

struct CostFixture {
  Dataset ds = tiny("covtype");
  LogisticRegression lr{ds.d()};
  TrainData data;
  ScaleContext scale;
  std::vector<real_t> w0;

  CostFixture() {
    data.sparse = &ds.x;
    data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
    data.y = ds.y;
    scale = make_scale_context(ds, lr, false);
    w0 = lr.init_params(5);
  }

  double secs(ClusterSync sync, std::size_t nodes) {
    ClusterEngineOptions o;
    o.nodes = nodes;
    o.sync = sync;
    o.batch = 64;
    ClusterEngine e(lr, data, scale, o);
    return e.epoch_seconds(w0);
  }
};

TEST(ClusterCost, AllReducePaysTheWirePerUpdate) {
  CostFixture f;
  // The collective's 2(N-1) phases put the interconnect on the critical
  // path of every update: epoch time grows with N once the wire
  // dominates the shrinking per-node compute.
  EXPECT_LT(f.secs(ClusterSync::kAllReduce, 1),
            f.secs(ClusterSync::kAllReduce, 8));
  // PS staleness grows with the cluster instead of the epoch time.
  ClusterEngineOptions o;
  o.nodes = 8;
  o.batch = 1;
  ClusterEngine big(f.lr, f.data, f.scale, o);
  o.nodes = 2;
  ClusterEngine small(f.lr, f.data, f.scale, o);
  ASSERT_NE(big.sim(), nullptr);
  ASSERT_NE(small.sim(), nullptr);
  EXPECT_GT(big.sim()->tau(), small.sim()->tau());
}

TEST(ClusterCost, PsLedgersTheWire) {
  CostFixture f;
  ClusterEngineOptions o;
  o.nodes = 4;
  o.batch = 64;
  ClusterEngine e(f.lr, f.data, f.scale, o);
  Rng rng(7);
  std::vector<real_t> w = f.w0;
  const double secs = e.run_epoch(w, real_t(0.01), rng);
  EXPECT_GT(secs, 0.0);
  EXPECT_GT(e.last_cost().net_messages, 0.0);
  EXPECT_GT(e.last_cost().net_bytes, 0.0);
  EXPECT_GT(e.last_net_seconds(), 0.0);
}

}  // namespace
}  // namespace parsgd
