#include "src/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace mrsky::common {
namespace {

TEST(ThreadPool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
}

TEST(ThreadPool, ReportsSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(500, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("bad index");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForSurfacesExactlyOneExceptionWhenManyThrow) {
  // Every index throws; parallel_for must fold them into a single rethrow
  // rather than terminating or leaking exceptions from abandoned futures.
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [](std::size_t i) {
      throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST(ThreadPool, PoolStaysUsableAfterParallelForThrows) {
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(50,
                                   [](std::size_t i) {
                                     if (i % 2 == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // Both entry points still work on the same pool.
    auto f = pool.submit([] { return 7; });
    EXPECT_EQ(f.get(), 7);
    std::atomic<int> counter{0};
    pool.parallel_for(20, [&counter](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 20);
  }
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(3);
  std::vector<long> partial(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { partial[i] = static_cast<long>(i); });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0L), 4950L);
}

TEST(ThreadPool, NestedParallelForOnOwnWorkerCompletes) {
  // Every outer lane holds a worker while it calls parallel_for on the same
  // pool, and on a 1-worker pool even one nested call has no sibling worker
  // to run its lanes: nested calls must run inline, or this test hangs.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(workers * 50);
    pool.parallel_for(workers, [&](std::size_t i) {
      pool.parallel_for(50, [&](std::size_t j) { hits[i * 50 + j].fetch_add(1); });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

    std::atomic<int> submitted_hits{0};
    pool.submit([&] {
          pool.parallel_for(50, [&](std::size_t) { submitted_hits.fetch_add(1); });
        }).get();
    EXPECT_EQ(submitted_hits.load(), 50);
  }
}

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace mrsky::common
