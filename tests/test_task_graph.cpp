// TaskGraph executor (DESIGN.md §15): dependency ordering, exception
// draining, reuse, telemetry, the caller-only one-task run — plus the
// determinism contract of the mini-batch step path built on it:
// trajectories are bit-identical across pool sizes, and the graph path
// collapses to a plain batch_step loop below the decomposition floor.
#include "parallel/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "data/generator.hpp"
#include "faults/injector.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/step_path.hpp"
#include "sgd/sync_engine.hpp"
#include "telemetry/session.hpp"

namespace parsgd {
namespace {

TEST(TaskGraph, EmptyRunIsNoop) {
  ThreadPool pool(2);
  TaskGraph g(pool);
  EXPECT_EQ(g.pending(), 0u);
  g.run();
  EXPECT_EQ(g.pending(), 0u);
}

TEST(TaskGraph, SingleTaskRuns) {
  ThreadPool pool(2);
  TaskGraph g(pool);
  std::atomic<int> hits{0};
  g.add([&] { hits.fetch_add(1); });
  EXPECT_EQ(g.pending(), 1u);
  g.run();
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(g.pending(), 0u);
}

TEST(TaskGraph, SingleTaskRunsOnCallerWithTelemetryAndRethrow) {
  // A one-task graph has nothing to overlap: it runs on the calling
  // thread without waking the pool, but keeps the counters and exception
  // propagation of a full run.
  ThreadPool pool(4);
  telemetry::TelemetrySession session(telemetry::TelemetryMode::kMetrics);
  TaskGraph g(pool, &session);
  std::thread::id ran_on;
  g.add([&] { ran_on = std::this_thread::get_id(); });
  g.run();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(session.metrics().counter("graph.runs").value(), 1.0);
  EXPECT_EQ(session.metrics().counter("graph.tasks").value(), 1.0);

  g.add([] { throw std::runtime_error("sole task"); });
  EXPECT_THROW(g.run(), std::runtime_error);
  EXPECT_EQ(session.metrics().counter("graph.runs").value(), 2.0);
  EXPECT_EQ(session.metrics().counter("graph.tasks").value(), 2.0);
  // Still reusable after the rethrow.
  int ok = 0;
  g.add([&] { ++ok; });
  g.run();
  EXPECT_EQ(ok, 1);
}

TEST(TaskGraph, ChainRunsStrictlyInOrder) {
  ThreadPool pool(4);
  TaskGraph g(pool);
  constexpr int kLen = 200;
  std::atomic<int> next{0};
  TaskGraph::TaskId prev = TaskGraph::kNoTask;
  for (int i = 0; i < kLen; ++i) {
    prev = g.add(
        [&next, i] {
          // Each link observes exactly its predecessor count.
          EXPECT_EQ(next.fetch_add(1), i);
        },
        {prev}, "link");
  }
  g.run();
  EXPECT_EQ(next.load(), kLen);
}

TEST(TaskGraph, DiamondHonorsBothEdges) {
  ThreadPool pool(4);
  TaskGraph g(pool);
  std::atomic<bool> a_done{false}, b_done{false}, c_done{false};
  const auto a = g.add([&] { a_done.store(true); });
  const auto b = g.add(
      [&] {
        EXPECT_TRUE(a_done.load());
        b_done.store(true);
      },
      {a});
  const auto c = g.add(
      [&] {
        EXPECT_TRUE(a_done.load());
        c_done.store(true);
      },
      {a});
  bool d_ran = false;
  g.add(
      [&] {
        EXPECT_TRUE(b_done.load());
        EXPECT_TRUE(c_done.load());
        d_ran = true;
      },
      {b, c});
  g.run();
  EXPECT_TRUE(d_ran);
}

TEST(TaskGraph, NoTaskDependenciesAreSkipped) {
  ThreadPool pool(2);
  TaskGraph g(pool);
  std::atomic<int> hits{0};
  // All-kNoTask dependency lists make roots — the natural encoding of
  // "chain after the previous batch, if any".
  const auto a = g.add([&] { hits.fetch_add(1); },
                       {TaskGraph::kNoTask, TaskGraph::kNoTask});
  g.add([&] { hits.fetch_add(1); }, {TaskGraph::kNoTask, a});
  g.run();
  EXPECT_EQ(hits.load(), 2);
}

TEST(TaskGraph, WideFanInExecutesEverythingOnce) {
  ThreadPool pool(8);
  TaskGraph g(pool);
  constexpr std::size_t kRoots = 500;
  std::vector<std::atomic<int>> hits(kRoots);
  std::vector<TaskGraph::TaskId> roots(kRoots);
  for (std::size_t i = 0; i < kRoots; ++i) {
    roots[i] = g.add([&hits, i] { hits[i].fetch_add(1); });
  }
  std::atomic<int> finals{0};
  g.add([&] { finals.fetch_add(1); },
        std::span<const TaskGraph::TaskId>(roots), "join");
  g.run();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(finals.load(), 1);
}

TEST(TaskGraph, ExceptionPropagatesAfterFullDrain) {
  ThreadPool pool(4);
  TaskGraph g(pool);
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  TaskGraph::TaskId prev = TaskGraph::kNoTask;
  for (int i = 0; i < kTasks; ++i) {
    prev = g.add(
        [&ran, i] {
          ran.fetch_add(1);
          if (i == 3) throw std::runtime_error("task 3");
        },
        {prev});
  }
  EXPECT_THROW(g.run(), std::runtime_error);
  // Successors of the throwing task still ran: the graph drains fully.
  EXPECT_EQ(ran.load(), kTasks);
  // And the graph is reusable afterwards.
  std::atomic<int> ok{0};
  for (int i = 0; i < 10; ++i) g.add([&] { ok.fetch_add(1); });
  g.run();
  EXPECT_EQ(ok.load(), 10);
}

TEST(TaskGraph, ReuseAcrossManyRuns) {
  ThreadPool pool(4);
  TaskGraph g(pool);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    TaskGraph::TaskId prev = TaskGraph::kNoTask;
    for (int i = 0; i < 20; ++i) {
      prev = g.add([&] { sum.fetch_add(1); }, {prev});
      g.add([&] { sum.fetch_add(1); });  // independent side task
    }
    g.run();
    ASSERT_EQ(sum.load(), 40);
    ASSERT_EQ(g.pending(), 0u);
  }
}

TEST(TaskGraph, TelemetryCountsRunsAndTasks) {
  ThreadPool pool(4);
  telemetry::TelemetrySession session(telemetry::TelemetryMode::kMetrics);
  TaskGraph g(pool, &session);
  for (int i = 0; i < 10; ++i) g.add([] {});
  g.run();
  for (int i = 0; i < 5; ++i) g.add([] {});
  g.run();
  EXPECT_EQ(session.metrics().counter("graph.runs").value(), 2.0);
  EXPECT_EQ(session.metrics().counter("graph.tasks").value(), 15.0);
  // Steals are timing-dependent; the counter just has to exist and be
  // non-negative.
  EXPECT_GE(session.metrics().counter("graph.steals").value(), 0.0);
}

TEST(TaskGraph, SingleWorkerPoolStillDrains) {
  // 1 worker + the calling thread: two lanes, heavy stealing.
  ThreadPool pool(1);
  TaskGraph g(pool);
  std::atomic<int> sum{0};
  std::vector<TaskGraph::TaskId> layer;
  for (int i = 0; i < 32; ++i) layer.push_back(g.add([&] { sum.fetch_add(1); }));
  g.add([&] { sum.fetch_add(1); }, std::span<const TaskGraph::TaskId>(layer));
  g.run();
  EXPECT_EQ(sum.load(), 33);
}

TEST(TaskGraph, NoWorkersPoolDrainsEverythingOnCaller) {
  // One lane, the caller's: a multi-task graph still honours every edge.
  ThreadPool pool{ThreadPool::NoWorkers{}};
  TaskGraph g(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<TaskGraph::TaskId> layer;
  for (int i = 0; i < 8; ++i) {
    layer.push_back(g.add([&, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    }));
  }
  g.add([&] { order.push_back(99); },
        std::span<const TaskGraph::TaskId>(layer));
  g.run();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order.back(), 99);
  std::vector<int> roots(order.begin(), order.end() - 1);
  std::sort(roots.begin(), roots.end());
  EXPECT_EQ(roots, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---- step-path determinism contract ----------------------------------

/// Synthetic sparse LR problem, large enough that kGraphMinBatch-sized
/// batches decompose into multi-chunk reduction trees.
struct StepPathFixture {
  static constexpr std::size_t kRows = 4096;
  static constexpr std::size_t kCols = 256;

  CsrMatrix x;
  std::vector<real_t> y;
  LogisticRegression model;
  TrainData data;

  StepPathFixture()
      : x([] {
          Rng rng(33);
          CsrMatrix::Builder b(kCols);
          std::vector<index_t> idx;
          std::vector<real_t> val;
          for (std::size_t i = 0; i < kRows; ++i) {
            idx.clear();
            val.clear();
            for (int k = 0; k < 16; ++k) {
              idx.push_back(static_cast<index_t>(rng.uniform_index(kCols)));
            }
            std::sort(idx.begin(), idx.end());
            idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
            for (std::size_t k = 0; k < idx.size(); ++k) {
              val.push_back(static_cast<real_t>(rng.normal()));
            }
            b.add_row(idx, val);
          }
          return std::move(b).build();
        }()),
        y(kRows),
        model(kCols) {
    Rng rng(34);
    for (auto& v : y) v = rng.bernoulli(0.5) ? real_t(1) : real_t(-1);
    data.sparse = &x;
    data.y = y;
  }

  /// Runs `epochs` mini-batch epochs through the step path.
  std::vector<real_t> run(std::size_t batch, std::size_t pool_size,
                          int epochs = 3) const {
    ThreadPool pool(pool_size);
    FaultInjector faults;
    MinibatchEpochOptions opts;
    opts.minibatch = batch;
    opts.pool = &pool;
    std::vector<real_t> w = model.init_params(5);
    Rng rng(7);
    for (int e = 0; e < epochs; ++e) {
      run_minibatch_epoch(model, data, real_t(0.1), w, rng, faults,
                          nullptr, opts);
    }
    return w;
  }

  /// The same epochs as a plain batch_step loop: shuffled batch order,
  /// one in-place update per batch, no pool and no graph.
  std::vector<real_t> run_plain(std::size_t batch, int epochs = 3) const {
    const std::size_t n = data.n();
    const std::size_t nb = (n + batch - 1) / batch;
    std::vector<real_t> w = model.init_params(5);
    Rng rng(7);
    for (int e = 0; e < epochs; ++e) {
      std::vector<std::uint32_t> order(nb);
      for (std::size_t b = 0; b < nb; ++b) {
        order[b] = static_cast<std::uint32_t>(b);
      }
      rng.shuffle(order);
      for (const std::uint32_t b : order) {
        const std::size_t begin = static_cast<std::size_t>(b) * batch;
        const std::size_t end = std::min(n, begin + batch);
        model.batch_step(data, begin, end, false, real_t(0.1), w, w);
      }
    }
    return w;
  }
};

TEST(StepPathDeterminism, GraphTrajectoryIsPoolSizeInvariant) {
  const StepPathFixture f;
  // batch 1024 decomposes into 8 gradient chunks + a merge tree; the
  // decomposition grid depends only on (batch, dim), never on the pool.
  const std::vector<real_t> w1 = f.run(1024, 1);
  const std::vector<real_t> w2 = f.run(1024, 2);
  const std::vector<real_t> w8 = f.run(1024, 8);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST(StepPathDeterminism, GraphIsRunToRunStable) {
  const StepPathFixture f;
  EXPECT_EQ(f.run(1024, 4), f.run(1024, 4));
}

TEST(StepPathDeterminism, GraphMatchesSequentialRungBelowDecompositionFloor) {
  // Batches under kGraphMinBatch stay a single batch_step task, so the
  // graph path is bit-identical to a plain sequential batch_step loop —
  // which is what keeps small-batch fault tests and hogbatch
  // trajectories unchanged.
  const StepPathFixture f;
  EXPECT_EQ(f.run(256, 4), f.run_plain(256));
}

TEST(StepPathDeterminism, SyncEngineTrajectoryInvariantAcrossPools) {
  // The same contract end-to-end through SyncEngine (det=on default):
  // mini-batch epochs via the engine are bit-identical across pool sizes
  // {1, 2, 8}.
  const Dataset ds =
      generate_dataset("w8a", GeneratorOptions{.seed = 5, .scale = 20.0});
  LogisticRegression lr(ds.d());
  TrainData data;
  data.sparse = &ds.x;
  data.y = ds.y;
  const ScaleContext scale = make_scale_context(ds, lr, ds.profile.dense);
  const std::vector<real_t> w0 = lr.init_params(5);

  auto run = [&](std::size_t pool_size) {
    ThreadPool pool(pool_size);
    SyncEngineOptions opts;
    opts.minibatch = 1024;
    opts.pool = &pool;
    SyncEngine e(lr, data, scale, opts);
    std::vector<real_t> w = w0;
    Rng rng(9);
    for (int i = 0; i < 3; ++i) e.run_epoch(w, real_t(0.5), rng);
    return w;
  };

  const std::vector<real_t> w1 = run(1);
  EXPECT_EQ(w1, run(2));
  EXPECT_EQ(w1, run(8));
}

}  // namespace
}  // namespace parsgd
