#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "telemetry/session.hpp"

namespace parsgd {
namespace {

TEST(ThreadPool, CoversWholeRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElement) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SumMatchesSequential) {
  ThreadPool pool(3);
  std::vector<long> data(5000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long> total{0};
  pool.parallel_for(data.size(), [&](std::size_t lo, std::size_t hi) {
    long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 5000L * 4999 / 2);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t lo, std::size_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, RunOnAllVisitsEveryWorker) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> visits(5);
  pool.run_on_all([&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, SizeReflectsConstruction) {
  ThreadPool pool(6);
  EXPECT_EQ(pool.size(), 6u);
}

TEST(ThreadPool, GlobalPoolExists) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, OversubscribedParallelFor) {
  // n >> workers: the pool splits into kChunksPerWorker chunks per worker
  // (one functor call each) and still covers every index exactly once.
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    calls.fetch_add(1);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(calls.load(),
            static_cast<int>(4 * ThreadPool::kChunksPerWorker));
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionFromMiddleChunk) {
  ThreadPool pool(4);
  const std::size_t n = 1600;
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.parallel_for(n,
                        [&](std::size_t lo, std::size_t hi) {
                          calls.fetch_add(1);
                          if (lo <= n / 2 && n / 2 < hi) {
                            throw std::runtime_error("mid-chunk failure");
                          }
                        }),
      std::runtime_error);
  // The job drains fully even after an error: every chunk still ran.
  EXPECT_EQ(calls.load(),
            static_cast<int>(4 * ThreadPool::kChunksPerWorker));
  std::atomic<int> ok{0};
  pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ok.load(), static_cast<int>(n));
}

TEST(ThreadPool, InterleavedRunOnAllAndParallelFor) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> visits(3);
    pool.run_on_all([&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
    std::atomic<long> sum{0};
    pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<long>(hi - lo));
    });
    ASSERT_EQ(sum.load(), 1000);
  }
}

TEST(ThreadPool, ChunksAreTakenFifo) {
  // The single atomic ticket counter hands chunks out front-to-back, so
  // every participating thread observes strictly increasing chunk starts.
  ThreadPool pool(4);
  std::mutex m;
  std::map<std::thread::id, std::vector<std::size_t>> starts;
  pool.parallel_for(4096, [&](std::size_t lo, std::size_t) {
    std::lock_guard<std::mutex> lock(m);
    starts[std::this_thread::get_id()].push_back(lo);
  });
  for (const auto& [tid, seq] : starts) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LT(seq[i - 1], seq[i]);
    }
  }
}

TEST(ThreadPool, ShutdownImmediatelyAfterJobs) {
  // Destruction races the workers' job epilogue: parallel_for returns as
  // soon as the last chunk is drained, while workers may still be between
  // deregistering and re-parking. Tear the pool down right at that window,
  // many times, with work still warm in every lane.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    pool.parallel_for(256, [&](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<int>(hi - lo));
    });
    pool.run_on_all([](std::size_t) {});
    ASSERT_EQ(sum.load(), 256);
  }  // ~ThreadPool while workers may not have parked yet
}

TEST(ThreadPool, ResubmissionAfterEscapedExceptionStress) {
  // An exception escaping a chunk must leave the pool reusable: the error
  // slot is cleared on the next publish and the generation handshake is
  // intact. Alternate throwing and clean jobs to shake out stale state.
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::size_t lo, std::size_t) {
                            if (lo == 0) throw std::runtime_error("chunk");
                          }),
        std::runtime_error);
    std::atomic<int> ok{0};
    pool.parallel_for(64, [&](std::size_t lo, std::size_t hi) {
      ok.fetch_add(static_cast<int>(hi - lo));
    });
    ASSERT_EQ(ok.load(), 64);
  }
}

TEST(ThreadPool, RunOnAllWithCallerVisitsEveryoneOnce) {
  ThreadPool pool(4);
  // Indices [0, size()) are the workers; size() is the calling thread.
  std::vector<std::atomic<int>> visits(5);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_participated{false};
  pool.run_on_all_with_caller([&](std::size_t i) {
    visits[i].fetch_add(1);
    if (std::this_thread::get_id() == caller) {
      EXPECT_EQ(i, 4u);
      caller_participated.store(true);
    }
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_TRUE(caller_participated.load());
}

TEST(ThreadPool, RunOnAllWithCallerPropagatesCallerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_on_all_with_caller([&](std::size_t i) {
    if (i == 2) throw std::runtime_error("caller lane");
  }),
               std::runtime_error);
  // Still reusable afterwards.
  std::vector<std::atomic<int>> visits(3);
  pool.run_on_all_with_caller([&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ChunksAreDisjointAndOrdered) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(103, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 103u);
}

// ---- worker-less pools: every job runs on the calling thread ----------

TEST(ThreadPool, NoWorkersPoolRunsParallelForOnCaller) {
  ThreadPool pool{ThreadPool::NoWorkers{}};
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(103, 0);  // no atomics: one thread only
  std::size_t calls = 0;
  pool.parallel_for(hits.size(), [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(calls, ThreadPool::kChunksPerWorker);  // a one-worker grid
}

TEST(ThreadPool, NoWorkersPoolRunOnAllWithCallerRunsOnlyTheCaller) {
  ThreadPool pool{ThreadPool::NoWorkers{}};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  pool.run_on_all_with_caller([&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  EXPECT_EQ(seen, std::vector<std::size_t>{0});
  EXPECT_THROW(pool.run_on_all_with_caller(
                   [](std::size_t) { throw std::runtime_error("caller"); }),
               std::runtime_error);
}

TEST(ThreadPool, NoWorkersPoolTakesTelemetry) {
  // The live-job CHECK of set_telemetry passes between jobs, and the
  // telemetry sees every chunk of the one-worker grid, all drained by
  // the caller.
  ThreadPool pool{ThreadPool::NoWorkers{}};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> starts;
  telemetry::TelemetrySession session(telemetry::TelemetryMode::kMetrics);
  {
    PoolTelemetryGuard guard(pool, &session);
    pool.parallel_for(50, [&](std::size_t lo, std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      starts.push_back(lo);
    });
  }
  EXPECT_EQ(starts.size(), 4u);
  EXPECT_EQ(session.metrics().counter("pool.jobs").value(), 1.0);
  EXPECT_EQ(session.metrics().counter("pool.chunks").value(), 4.0);
  EXPECT_EQ(session.metrics().counter("pool.wakeups").value(), 0.0);
}

TEST(ThreadPool, SizedConstructorsKeepTheirWorkerCounts) {
  EXPECT_EQ(ThreadPool(3).size(), 3u);
  EXPECT_EQ(ThreadPool(0).size(),
            std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace parsgd
