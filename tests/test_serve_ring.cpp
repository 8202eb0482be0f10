// Serving-layer primitives under contention: FIFO and close semantics of
// the lock-free SpscRing, the serve layer's one queue (wrap around,
// overflow policies, close-while-full, 1P1C stress), wakes of threads
// parked in its blocking calls, no-loss/no-duplication under
// producer/consumer hammering, the drop-with-counter overflow policy, the
// FanIn consumer helper (lossy accounting, close, wakes, final sweep,
// teardown), and the striped lock-free metrics recorders. This is the file
// CI additionally runs under ASan/UBSan and ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "serve/fan_in.hpp"
#include "serve/metrics.hpp"
#include "serve/spsc_ring.hpp"

namespace {

using namespace elsa::serve;

// Wake tests hold a thread parked for kParkFor, hundreds of times
// util::EventCount::kSpinBudget, so that it has stopped spinning and sleeps
// in the kernel; then they release it and wait for it under kDeadline.
constexpr auto kParkFor = std::chrono::milliseconds(20);
constexpr auto kDeadline = std::chrono::seconds(10);

/// Waits up to kDeadline for `result`. A thread still parked by then has
/// lost its wakeup; it can be neither joined nor safely abandoned, so the
/// test reports the failure and ends the process rather than hang.
template <class Future>
void await_or_exit(const Future& result, const char* what) {
  if (result.wait_for(kDeadline) == std::future_status::ready) return;
  std::fprintf(stderr, "lost wakeup: %s\n", what);
  std::fflush(stderr);
  std::_Exit(EXIT_FAILURE);
}

/// Runs `body` on its own thread.
class TestThread {
 public:
  explicit TestThread(std::function<void()> body)
      : thread_([this, body = std::move(body)] {
          body();
          done_.set_value();
        }) {}
  ~TestThread() {
    if (thread_.joinable()) thread_.join();
  }
  TestThread(const TestThread&) = delete;
  TestThread& operator=(const TestThread&) = delete;

  bool returned() const {
    return returned_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  /// Joins the thread once its body returned, within kDeadline.
  void join_within_deadline(const char* what) {
    await_or_exit(returned_, what);
    thread_.join();
  }

 private:
  std::promise<void> done_;
  std::future<void> returned_ = done_.get_future();
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// SpscRing: the per-shard ingest lanes, the fan-in rings and the alarm feed.

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
}

// Several full fill/drain cycles drive the cursors well past the capacity,
// exercising the slot sequence-number wrap-around the masking relies on.
TEST(SpscRing, FifoSurvivesWrapAround) {
  SpscRing<int> ring(4);
  int next_in = 0, next_out = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (int i = 0; i < 4; ++i) EXPECT_GT(ring.push(next_in++), 0u);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.push_evict(next_in), 4u);  // full: evicts next_out
    ++next_in;
    ++next_out;
    for (int i = 0; i < 4; ++i) {
      auto v = ring.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_out++);
    }
    EXPECT_EQ(ring.try_pop(), std::nullopt);
  }
  EXPECT_EQ(ring.evicted(), 10u);
}

TEST(SpscRing, OfferDropsAndCountsOnOverflow) {
  SpscRing<int> ring(8);
  std::size_t accepted = 0;
  for (int i = 0; i < 100; ++i) accepted += ring.offer(i) != 0;
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(ring.dropped(), 92u);
  // FIFO of the survivors.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ring.try_pop(), i);
}

// A full ring displaces its OLDEST item (counted, reported), never the
// newcomer; only close rejects.
TEST(SpscRing, PushEvictDisplacesOldest) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_GT(ring.push_evict(i), 0u);
  EXPECT_EQ(ring.evicted(), 0u);

  std::size_t kicked = 0;
  EXPECT_GT(ring.push_evict(4, &kicked), 0u);  // displaces 0
  EXPECT_EQ(kicked, 1u);
  EXPECT_GT(ring.push_evict(5, &kicked), 0u);  // displaces 1
  EXPECT_EQ(kicked, 1u);
  EXPECT_EQ(ring.evicted(), 2u);
  EXPECT_EQ(ring.size(), 4u);

  // The freshest window survives, still FIFO.
  for (int i = 2; i < 6; ++i) EXPECT_EQ(ring.try_pop(), i);

  kicked = 7;
  EXPECT_GT(ring.push_evict(9, &kicked), 0u);  // room again: no eviction
  EXPECT_EQ(kicked, 0u);

  ring.close();
  EXPECT_EQ(ring.push_evict(10, &kicked), 0u);  // only closed rejects
  EXPECT_EQ(kicked, 0u);
  EXPECT_EQ(ring.evicted(), 2u);
}

// close() while a producer is parked in push() on a full ring: the
// producer unblocks with 0 (item not enqueued), queued items stay
// poppable, and pop_wait reports closed-and-drained.
TEST(SpscRing, CloseWhileFullUnblocksProducer) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_GT(ring.push(i), 0u);

  // Full -> parks -> close fails it.
  TestThread producer([&ring] { EXPECT_EQ(ring.push(99), 0u); });
  std::this_thread::sleep_for(kParkFor);
  EXPECT_FALSE(producer.returned());
  ring.close();
  producer.join_within_deadline("close() left a producer parked");

  std::vector<int> out;
  EXPECT_TRUE(ring.pop_wait(out, 64));  // drains the 4 survivors...
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(ring.pop_wait(out, 64));  // ...then reports closed+empty
  EXPECT_EQ(ring.offer(7), 0u);          // closed: counted as a drop
  EXPECT_EQ(ring.dropped(), 1u);
}

// One pop wakes a producer parked in push() on a full ring; its item lands
// behind the survivors.
TEST(SpscRing, PopReleasesProducerParkedOnFullRing) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_GT(ring.push(i), 0u);

  TestThread producer([&ring] { EXPECT_GT(ring.push(99), 0u); });
  std::this_thread::sleep_for(kParkFor);
  EXPECT_FALSE(producer.returned());
  std::vector<int> out;
  EXPECT_EQ(ring.pop_n(out, 1), 1u);
  producer.join_within_deadline("a pop left a producer parked on a full ring");

  ring.close();
  EXPECT_TRUE(ring.pop_wait(out, 64));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 99}));
}

// One push wakes a consumer parked in pop_wait on an empty ring.
TEST(SpscRing, PushReleasesConsumerParkedOnEmptyRing) {
  SpscRing<int> ring(2);
  std::vector<int> got;
  TestThread consumer([&] { EXPECT_TRUE(ring.pop_wait(got, 8)); });
  std::this_thread::sleep_for(kParkFor);
  EXPECT_FALSE(consumer.returned());
  EXPECT_GT(ring.push(7), 0u);
  consumer.join_within_deadline("a push left a consumer parked");
  EXPECT_EQ(got, (std::vector<int>{7}));
}

// close() wakes a consumer parked in pop_wait on an empty ring: it reports
// closed-and-drained.
TEST(SpscRing, CloseUnblocksWaitingConsumer) {
  SpscRing<int> ring(2);
  TestThread consumer([&ring] {
    std::vector<int> out;
    EXPECT_FALSE(ring.pop_wait(out, 8));
  });
  std::this_thread::sleep_for(kParkFor);
  EXPECT_FALSE(consumer.returned());
  ring.close();
  consumer.join_within_deadline("close() left a consumer parked");
}

// The deployed topology: one producer, one consumer, batched pops. Every
// item arrives exactly once, in order. (CI also runs this under TSan —
// it is the data-race acceptance test for the Vyukov slot protocol.)
TEST(SpscRingStress, SingleProducerSingleConsumerExactFifo) {
  constexpr int kItems = 200'000;
  SpscRing<int> ring(1024);

  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_GT(ring.push(i), 0u);
    ring.close();
  });

  std::vector<int> got;
  got.reserve(kItems);
  std::vector<int> buf;
  while (ring.pop_wait(buf, 64)) {
    got.insert(got.end(), buf.begin(), buf.end());
    buf.clear();
  }
  producer.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

// submit() is a public thread-safe API, and every shard worker offers into
// the one shared alarm ring, so the ring must also hold up under
// multi-producer shedding: accepted + dropped adds up exactly, and
// consumers see each accepted item once.
TEST(SpscRingStress, MultiProducerOfferAccountingAddsUp) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 10'000;
  SpscRing<int> ring(128);
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        if (ring.offer(i) != 0) accepted.fetch_add(1);
    });
  std::atomic<std::uint64_t> consumed{0};
  std::thread consumer([&] {
    std::vector<int> buf;
    while (ring.pop_wait(buf, 32)) {
      consumed.fetch_add(buf.size());
      buf.clear();
    }
  });
  for (auto& t : producers) t.join();
  ring.close();
  consumer.join();

  EXPECT_EQ(accepted.load() + ring.dropped(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(consumed.load(), accepted.load());
}

// Several producers pushing with backpressure, several consumers draining:
// every item comes out exactly once.
TEST(SpscRingStress, MultiProducerMultiConsumerNoLossNoDuplication) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 20'000;
  SpscRing<int> ring(64);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_GT(ring.push(p * kPerProducer + i), 0u);
    });

  std::vector<std::vector<int>> taken(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&ring, &taken, c] {
      std::vector<int>& mine = taken[static_cast<std::size_t>(c)];
      std::vector<int> buf;
      while (ring.pop_wait(buf, 16)) {
        mine.insert(mine.end(), buf.begin(), buf.end());
        buf.clear();
      }
    });

  for (auto& t : producers) t.join();
  ring.close();
  for (auto& t : consumers) t.join();

  std::vector<char> seen(kProducers * kPerProducer, 0);
  std::size_t total = 0;
  for (const auto& v : taken)
    for (const int x : v) {
      ASSERT_GE(x, 0);
      ASSERT_LT(x, kProducers * kPerProducer);
      ASSERT_EQ(seen[static_cast<std::size_t>(x)], 0) << "duplicated item " << x;
      seen[static_cast<std::size_t>(x)] = 1;
      ++total;
    }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers) * kPerProducer);
}

// push_evict racing a live consumer: every push lands (never rejected
// while open), and at the end every pushed item is accounted consumed or
// evicted — the eviction counter never over- or under-counts.
TEST(SpscRingStress, PushEvictAccountingUnderConcurrentConsumer) {
  constexpr int kItems = 50'000;
  SpscRing<int> ring(64);

  std::atomic<std::uint64_t> consumed{0};
  std::thread consumer([&] {
    std::vector<int> buf;
    while (ring.pop_wait(buf, 16)) {
      consumed.fetch_add(buf.size());
      buf.clear();
    }
  });

  for (int i = 0; i < kItems; ++i) ASSERT_GT(ring.push_evict(i), 0u);
  ring.close();
  consumer.join();

  EXPECT_EQ(consumed.load() + ring.evicted(),
            static_cast<std::uint64_t>(kItems));
}

// ---------------------------------------------------------------------------
// FanIn: per-shard rings into one consumer thread (advisor and miner).

using IntFanIn = FanIn<int>;

// Lossy mode never blocks and never loses the accounting: every attempt is
// either queued (and later taken, in per-shard order) or counted dropped —
// an unknown shard index included.
TEST(FanIn, LossyAcceptedPlusDroppedEqualsAttempts) {
  constexpr int kPerShard = 50;
  IntFanIn fan(2, 8, IntFanIn::Mode::kLossy);
  std::vector<std::vector<int>> accepted(2);
  std::uint64_t attempts = 0;
  for (int i = 0; i < kPerShard; ++i)
    for (std::size_t s = 0; s < 2; ++s) {
      ++attempts;
      if (fan.publish(s, i)) accepted[s].push_back(i);
    }
  ++attempts;
  EXPECT_FALSE(fan.publish(7, 0));  // no such shard: dropped, not lost
  EXPECT_EQ(accepted[0].size(), 8u);  // nothing consumes yet: rings full
  EXPECT_EQ(accepted[0].size() + accepted[1].size() + fan.dropped(), attempts);

  std::vector<std::vector<int>> taken(2);
  fan.start([&taken](std::size_t s, int&& v) { taken[s].push_back(v); });
  fan.stop();
  EXPECT_EQ(taken, accepted);
}

// close() releases a producer parked in a lossless publish on a full ring;
// the item is not queued.
TEST(FanIn, CloseReleasesBlockedLosslessPublish) {
  IntFanIn fan(1, 2, IntFanIn::Mode::kLossless);
  ASSERT_TRUE(fan.publish(0, 1));
  ASSERT_TRUE(fan.publish(0, 2));
  // Full -> parks -> close fails it.
  TestThread producer([&fan] { EXPECT_FALSE(fan.publish(0, 3)); });
  std::this_thread::sleep_for(kParkFor);
  EXPECT_FALSE(producer.returned());
  fan.close();
  producer.join_within_deadline("close() left a lossless publish parked");
  EXPECT_EQ(fan.dropped(), 0u);  // lossless mode counts nothing
}

// A consumer parked on an idle fan-in wakes for a newly published item,
// and, parked again, exits on stop().
TEST(FanIn, ParkedConsumerWakesForAnItemAndForStop) {
  IntFanIn fan(2, 4, IntFanIn::Mode::kLossless);
  std::promise<int> taken;
  std::future<int> item = taken.get_future();
  fan.start([&taken](std::size_t, int&& v) { taken.set_value(v); });
  std::this_thread::sleep_for(kParkFor);
  ASSERT_TRUE(fan.publish(1, 42));
  await_or_exit(item, "the parked consumer missed a publish");
  EXPECT_EQ(item.get(), 42);

  std::this_thread::sleep_for(kParkFor);
  TestThread stopper([&fan] { fan.stop(); });
  stopper.join_within_deadline("the parked consumer missed stop()");
}

// Everything published before stop() reaches take() — in per-shard order,
// whatever the consumer was doing when the stop landed — and swept(true)
// comes exactly once, after the last item.
TEST(FanIn, FinalSweepDeliversEverythingPublishedBeforeStop) {
  constexpr int kShards = 3;
  constexpr int kPerShard = 5'000;
  IntFanIn fan(kShards, 16, IntFanIn::Mode::kLossless);
  std::vector<std::vector<int>> taken(kShards);
  int finals = 0;
  bool item_after_final = false;
  fan.start(
      [&](std::size_t s, int&& v) {
        item_after_final = item_after_final || finals > 0;
        taken[s].push_back(v);
      },
      [&finals](bool final) { finals += final ? 1 : 0; });

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kShards; ++s)
    producers.emplace_back([&fan, s] {
      for (int i = 0; i < kPerShard; ++i) ASSERT_TRUE(fan.publish(s, i));
    });
  for (auto& t : producers) t.join();
  fan.stop();
  fan.stop();  // idempotent

  EXPECT_EQ(finals, 1);
  EXPECT_FALSE(item_after_final);
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(taken[s].size(), static_cast<std::size_t>(kPerShard)) << s;
    for (int i = 0; i < kPerShard; ++i)
      ASSERT_EQ(taken[s][static_cast<std::size_t>(i)], i) << s;
  }
}

// Destroying a helper nobody stopped returns promptly — with a running
// consumer (whose final sweep still takes what was queued) or without one.
TEST(FanIn, DestructionWithoutStopDoesNotHang) {
  std::vector<int> taken;
  {
    IntFanIn fan(2, 4, IntFanIn::Mode::kLossless);
    fan.start([&taken](std::size_t, int&& v) { taken.push_back(v); });
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(fan.publish(0, i));
  }
  EXPECT_EQ(taken, (std::vector<int>{0, 1, 2, 3}));
  {
    IntFanIn idle(2, 4, IntFanIn::Mode::kLossless);
    ASSERT_TRUE(idle.publish(1, 9));
  }
}

// ---------------------------------------------------------------------------
// Striped metrics.

// More threads than stripes: increments collapse onto shared stripes
// without losing a single count.
TEST(StripedCounter, ConcurrentAddsSumExactly) {
  StripedCounter c;
  std::vector<std::thread> ts;
  for (int t = 0; t < 12; ++t)
    ts.emplace_back([&c] {
      for (int i = 0; i < 10'000; ++i) c.add();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.read(), 120'000u);
  c.add(42);
  EXPECT_EQ(c.read(), 120'042u);
}

TEST(AtomicHistogram, CountsAndSnapshots) {
  AtomicHistogram h({0.0, 10.0, 100.0});
  h.add(-5.0);  // clamped into the floor bin
  h.add(3.0);
  h.add(50.0);
  h.add(1e9);  // unbounded top bin
  EXPECT_EQ(h.total(), 4u);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count(0), 2u);
  EXPECT_EQ(snap.count(1), 1u);
  EXPECT_EQ(snap.count(2), 1u);
}

TEST(AtomicHistogram, ConcurrentAddsAllLand) {
  AtomicHistogram h({0.0, 1.0, 2.0, 3.0});
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&h] {
      for (int i = 0; i < 10'000; ++i) h.add(static_cast<double>(i % 4));
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.total(), 40'000u);
}

TEST(ServeMetrics, SnapshotReflectsHooks) {
  ServeMetrics m;
  m.on_submit(4);
  m.on_ingest(3);
  m.on_ingest(5);
  m.on_quarantine(1);
  m.on_shed(2);
  m.on_retry(3);
  m.on_watchdog_trip();
  m.on_processed(ServeMetrics::Clock::now());
  m.on_prediction(ServeMetrics::Clock::now());
  m.on_dedupe(4);
  m.on_out_of_order(1);
  m.stop();
  const auto s = m.snapshot();
  EXPECT_EQ(s.ingested, 4u);
  EXPECT_EQ(s.records_in, 2u);
  EXPECT_EQ(s.records_out, 1u);
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.retries, 3u);
  EXPECT_EQ(s.watchdog_trips, 1u);
  EXPECT_EQ(s.predictions, 1u);
  EXPECT_EQ(s.dedupe_hits, 4u);
  EXPECT_EQ(s.out_of_order, 1u);
  EXPECT_GT(s.wall_seconds, 0.0);
  // 4 ingested == 1 out + 1 quarantined + 2 shed.
  EXPECT_TRUE(s.records_conserved());
  EXPECT_FALSE(m.text_report().empty());
}

TEST(ServeMetrics, DegradedModeAccumulatesTime) {
  ServeMetrics m;
  EXPECT_FALSE(m.degraded());
  m.set_degraded(true);
  m.set_degraded(true);  // idempotent
  EXPECT_TRUE(m.degraded());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.set_degraded(false);
  EXPECT_FALSE(m.degraded());
  const auto s = m.snapshot();
  EXPECT_FALSE(s.degraded);
  EXPECT_GT(s.degraded_seconds, 0.0);
  // Conservation trivially holds with no traffic.
  EXPECT_TRUE(s.records_conserved());
}

}  // namespace
