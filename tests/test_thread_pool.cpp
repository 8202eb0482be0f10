#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace {

using namespace elsa::util;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 500; ++i)
    futs.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      pool.submit([&counter] { ++counter; });
  }  // destructor joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, ComputesEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { ++hits[i]; }, /*grain=*/16);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRanges) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  ThreadPool pool(4);
  std::vector<int> order;
  // grain larger than the range: body must run inline, in order.
  parallel_for(pool, 0, 8,
               [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               /*grain=*/64);
  std::vector<int> expected{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, ExceptionRethrown) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 0, 1000,
                            [](std::size_t i) {
                              if (i == 777) throw std::runtime_error("x");
                            },
                            /*grain=*/8),
               std::runtime_error);
}

TEST(ParallelFor, EveryChunkThrowingRethrowsExactlyOne) {
  // All chunks throw concurrently; exactly one exception must surface on
  // the calling thread (first wins), never std::terminate.
  ThreadPool pool(4);
  try {
    parallel_for(pool, 0, 512,
                 [](std::size_t i) {
                   throw std::runtime_error("chunk " + std::to_string(i));
                 },
                 /*grain=*/8);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
  }
}

TEST(ParallelFor, ThrowWaitsForEveryOtherChunk) {
  // Chunk 0 throws at once while the other 15 are still sleeping. The
  // rethrow must wait for them: they call `body` by reference, and the
  // caller's frame is about to unwind. The counters and `body` are
  // declared before the pool, so a parallel_for that rethrows early still
  // leaves them alive until the pool's workers have joined.
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    if (i == 0) throw std::runtime_error("chunk 0");
    ++running;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    --running;
    ++finished;
  };
  ThreadPool pool(4);
  try {
    parallel_for(pool, 0, 16, body, /*grain=*/1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
    EXPECT_EQ(running.load(), 0);
    EXPECT_EQ(finished.load(), 15);
  }
}

TEST(ParallelFor, PoolRemainsUsableAfterException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 0, 100,
                            [](std::size_t) { throw std::logic_error("x"); },
                            /*grain=*/4),
               std::logic_error);
  // Workers survived the throwing batch: both submission paths still work.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
  std::atomic<int> hits{0};
  parallel_for(pool, 0, 1000, [&](std::size_t) { ++hits; }, /*grain=*/16);
  EXPECT_EQ(hits.load(), 1000);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(3);
  std::vector<long> partial(4096, 0);
  parallel_for(pool, 0, partial.size(),
               [&](std::size_t i) { partial[i] = static_cast<long>(i * i); },
               /*grain=*/32);
  long sum = std::accumulate(partial.begin(), partial.end(), 0L);
  long expect = 0;
  for (long i = 0; i < 4096; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

}  // namespace
