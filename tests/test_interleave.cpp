// Interleaving-explorer suite: the dynamic half of the lock-free auditing
// layer. Built with ELSA_INTERLEAVE_HARNESS, so every util::sched_point()
// in the lock-free structures is a scheduling decision, and links ONLY
// GTest — the structures under test are header-only, which keeps the two
// sched_point() bodies out of one link (the ODR rule in interleave.hpp).
//
// Ported production protocols (random walk, >= 1000 distinct schedules
// each at the default rounds) plus bounded-exhaustive runs over the
// non-blocking protocols (the EventCount park/notify handshake among
// them), a determinism proof (same seed, same schedule), and the negative
// controls: deliberately weakened clones (an SPSC ring publishing its
// cursor before the payload, an RCU pin loading before it pins, a waiter
// announcing itself after its re-check) that the explorer must catch and
// replay.
//
// CI scaling knobs (all optional):
//   ELSA_INTERLEAVE_ROUNDS         random-walk schedules per suite (1500)
//   ELSA_INTERLEAVE_PREEMPTIONS    exhaustive preemption bound (2)
//   ELSA_INTERLEAVE_MAX_SCHEDULES  exhaustive enumeration cap (20000)
#include "util/interleave.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/model_handle.hpp"
#include "serve/spsc_ring.hpp"
#include "util/eventcount.hpp"

namespace {

using elsa::util::interleave::Options;
using elsa::util::interleave::Result;
using elsa::util::interleave::Setup;
using elsa::util::interleave::Trial;
using elsa::util::interleave::explore_exhaustive;
using elsa::util::interleave::explore_random;
using elsa::util::interleave::replay;

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

std::size_t rounds() { return env_or("ELSA_INTERLEAVE_ROUNDS", 1500); }

Options exhaustive_options() {
  Options opt;
  opt.preemption_bound = env_or("ELSA_INTERLEAVE_PREEMPTIONS", 2);
  opt.max_schedules = env_or("ELSA_INTERLEAVE_MAX_SCHEDULES", 20000);
  return opt;
}

/// Distinct-schedule floor, scaled down when CI dials the rounds down.
std::size_t distinct_floor() {
  const std::size_t r = rounds();
  return r >= 1500 ? 1000 : r / 2;
}

#define EXPECT_CLEAN(res)                                               \
  EXPECT_FALSE((res).failed) << (res).failure << "\n" << (res).replay_line()

// ---------------------------------------------------------------------------
// Port 1: serve::SpscRing — 1P1C blocking FIFO + close. The producer pushes
// a known sequence and closes; the consumer drains with pop_wait. Every
// schedule must conserve and order the items exactly.

Setup serve_ring_fifo_setup() {
  return [](Trial& t) {
    constexpr int kItems = 8;
    auto ring = std::make_shared<elsa::serve::SpscRing<int>>(4);
    auto got = std::make_shared<std::vector<int>>();
    t.thread([ring] {
      for (int i = 0; i < kItems; ++i) ring->push(i);
      ring->close();
    });
    t.thread([ring, got] {
      std::vector<int> batch;
      while (ring->pop_wait(batch, 3)) {
        got->insert(got->end(), batch.begin(), batch.end());
        batch.clear();
      }
    });
    t.check([got]() -> std::string {
      if (got->size() != kItems)
        return "consumer saw " + std::to_string(got->size()) + "/8 items";
      for (int i = 0; i < kItems; ++i)
        if ((*got)[static_cast<std::size_t>(i)] != i)
          return "FIFO order broken at index " + std::to_string(i);
      return "";
    });
  };
}

TEST(InterleaveServeRing, BlockingFifoAndCloseHoldEverywhere) {
  const Result res = explore_random(serve_ring_fifo_setup(), 0xe15a01, rounds());
  EXPECT_CLEAN(res);
  EXPECT_GE(res.distinct, distinct_floor());
  EXPECT_EQ(res.diverged, 0u);
}

// Port 2: serve::SpscRing — push_evict against a live consumer. Eviction
// drops only the oldest; whatever the consumer observes must be an ordered
// subsequence, and popped + evicted + remaining must conserve the input.

Setup serve_ring_evict_setup() {
  return [](Trial& t) {
    constexpr int kItems = 8;
    auto ring = std::make_shared<elsa::serve::SpscRing<int>>(4);
    auto got = std::make_shared<std::vector<int>>();
    t.thread([ring] {
      for (int i = 0; i < kItems; ++i) ring->push_evict(i);
    });
    t.thread([ring, got] {
      for (int spins = 0; spins < kItems; ++spins) {
        auto item = ring->try_pop();
        if (item) got->push_back(*item);
      }
    });
    t.check([ring, got]() -> std::string {
      std::vector<int> rest;
      while (auto item = ring->try_pop()) rest.push_back(*item);
      std::vector<int> seen(*got);
      seen.insert(seen.end(), rest.begin(), rest.end());
      // Ordered subsequence of 0..7 (eviction removes, never reorders).
      int next = 0;
      for (int v : seen) {
        if (v < next || v >= kItems) return "saw out-of-order " + std::to_string(v);
        next = v + 1;
      }
      const std::size_t evicted = static_cast<std::size_t>(ring->evicted());
      if (seen.size() + evicted != kItems)
        return "conservation broken: popped+remaining " +
               std::to_string(seen.size()) + " + evicted " +
               std::to_string(evicted) + " != 8";
      return "";
    });
  };
}

TEST(InterleaveServeRing, EvictionConservesAndOrders) {
  const Result res =
      explore_random(serve_ring_evict_setup(), 0xe15a02, rounds());
  EXPECT_CLEAN(res);
  EXPECT_GE(res.distinct, distinct_floor());
}

// Port 3: serve::StripedCounter — two adders and a monotone reader; the
// final sum is exact, and no intermediate read may exceed it or regress.

Setup striped_counter_setup() {
  return [](Trial& t) {
    constexpr std::uint64_t kPerThread = 6;
    auto counter = std::make_shared<elsa::serve::StripedCounter>();
    auto reads = std::make_shared<std::vector<std::uint64_t>>();
    for (int a = 0; a < 2; ++a)
      t.thread([counter] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) counter->add(1);
      });
    t.thread([counter, reads] {
      for (int i = 0; i < 4; ++i) reads->push_back(counter->read());
    });
    t.check([counter, reads]() -> std::string {
      const std::uint64_t total = counter->read();
      if (total != 2 * kPerThread)
        return "final sum " + std::to_string(total) + " != 12";
      std::uint64_t prev = 0;
      for (std::uint64_t r : *reads) {
        if (r < prev) return "reader regressed: " + std::to_string(r);
        if (r > total) return "reader overshot: " + std::to_string(r);
        prev = r;
      }
      return "";
    });
  };
}

TEST(InterleaveStripedCounter, SumIsExactAndReadsMonotone) {
  const Result res = explore_random(striped_counter_setup(), 0xe15a03, rounds());
  EXPECT_CLEAN(res);
  EXPECT_GE(res.distinct, distinct_floor());
}

// Port 4: the lossy tap hand-off — serve::SpscRing under overflow, the
// exact calls the advisor's fan-in and the shared alarm feed make: offer
// (counting the drop on 0) against a try_pop consumer. accepted + dropped
// == attempts, the ring's own drop counter agrees, and the consumer sees
// an ordered prefix-subsequence of what was accepted.

Setup advisor_tap_setup() {
  return [](Trial& t) {
    constexpr int kAttempts = 8;
    auto ring = std::make_shared<elsa::serve::SpscRing<int>>(2);
    auto accepted = std::make_shared<std::vector<int>>();
    auto dropped = std::make_shared<int>(0);
    auto got = std::make_shared<std::vector<int>>();
    t.thread([ring, accepted, dropped] {
      for (int i = 0; i < kAttempts; ++i) {
        if (ring->offer(i) != 0)
          accepted->push_back(i);
        else
          ++*dropped;
      }
    });
    t.thread([ring, got] {
      for (int spins = 0; spins < kAttempts; ++spins)
        if (auto v = ring->try_pop()) got->push_back(*v);
    });
    t.check([ring, accepted, dropped, got]() -> std::string {
      if (accepted->size() + static_cast<std::size_t>(*dropped) != kAttempts)
        return "accepted " + std::to_string(accepted->size()) + " + dropped " +
               std::to_string(*dropped) + " != 8";
      if (ring->dropped() != static_cast<std::uint64_t>(*dropped))
        return "ring counted " + std::to_string(ring->dropped()) +
               " drops, producer saw " + std::to_string(*dropped);
      std::vector<int> all(*got);
      while (auto v = ring->try_pop()) all.push_back(*v);
      if (all != *accepted)
        return "consumed stream is not the accepted stream (got " +
               std::to_string(all.size()) + "/" +
               std::to_string(accepted->size()) + ")";
      return "";
    });
  };
}

TEST(InterleaveAdvisorTap, OverflowCountsAndFifoHoldEverywhere) {
  const Result res = explore_random(advisor_tap_setup(), 0xe15a04, rounds());
  EXPECT_CLEAN(res);
  EXPECT_GE(res.distinct, distinct_floor());
  EXPECT_EQ(res.diverged, 0u);  // both bodies are straight-line non-blocking
}

// Port 5: the watchdog stop-flag handshake (ShardedEngine's Shard::alive
// protocol, modeled with explicit schedule points): the worker publishes N
// relaxed progress increments with one release store; the watcher's
// acquire load of the flag must make every increment visible.

template <class T>
class TracedAtomic {
 public:
  explicit TracedAtomic(T v) : a_(v) {}
  T load(std::memory_order o) const {
    elsa::util::sched_point();
    return a_.load(o);
  }
  void store(T v, std::memory_order o) {
    elsa::util::sched_point();
    a_.store(v, o);
  }
  T fetch_add(T n, std::memory_order o) {
    elsa::util::sched_point();
    return a_.fetch_add(n, o);
  }

 private:
  std::atomic<T> a_;
};

Setup watchdog_handshake_setup() {
  return [](Trial& t) {
    constexpr std::uint64_t kWork = 5;
    struct State {
      TracedAtomic<std::uint64_t> progress{0};
      TracedAtomic<bool> done{false};
    };
    auto st = std::make_shared<State>();
    auto snap = std::make_shared<std::uint64_t>(0);
    t.thread([st] {
      for (std::uint64_t i = 0; i < kWork; ++i)
        // relaxed: the trailing release store of `done` publishes these.
        st->progress.fetch_add(1, std::memory_order_relaxed);
      st->done.store(true, std::memory_order_release);
    });
    t.thread([st, snap] {
      while (!st->done.load(std::memory_order_acquire)) {
      }
      // relaxed: ordered by the acquire load of `done` above.
      *snap = st->progress.load(std::memory_order_relaxed);
    });
    t.check([snap]() -> std::string {
      if (*snap != kWork)
        return "watchdog saw " + std::to_string(*snap) + "/5 after the "
               "release/acquire handshake";
      return "";
    });
  };
}

TEST(InterleaveWatchdog, StopFlagHandshakePublishesProgress) {
  const Result res =
      explore_random(watchdog_handshake_setup(), 0xe15a05, rounds());
  EXPECT_CLEAN(res);
  EXPECT_GE(res.distinct, distinct_floor());
}

/// Exhaustive-safe variant of the handshake: the watcher polls a bounded
/// number of times instead of spinning, so every body terminates under
/// every schedule (the non-blocking rule for exhaustive suites — an
/// unbounded spin would push each schedule to the divergence cutoff and
/// blow up the DFS).
Setup watchdog_bounded_setup() {
  return [](Trial& t) {
    constexpr std::uint64_t kWork = 5;
    struct State {
      TracedAtomic<std::uint64_t> progress{0};
      TracedAtomic<bool> done{false};
    };
    auto st = std::make_shared<State>();
    auto observed = std::make_shared<bool>(false);
    auto snap = std::make_shared<std::uint64_t>(0);
    t.thread([st] {
      for (std::uint64_t i = 0; i < kWork; ++i)
        // relaxed: the trailing release store of `done` publishes these.
        st->progress.fetch_add(1, std::memory_order_relaxed);
      st->done.store(true, std::memory_order_release);
    });
    t.thread([st, observed, snap] {
      for (int i = 0; i < 40 && !*observed; ++i)
        *observed = st->done.load(std::memory_order_acquire);
      if (*observed)
        // relaxed: ordered by the acquire load of `done` above.
        *snap = st->progress.load(std::memory_order_relaxed);
    });
    t.check([observed, snap]() -> std::string {
      if (*observed && *snap != kWork)
        return "watchdog saw " + std::to_string(*snap) + "/5 after the "
               "release/acquire handshake";
      return "";
    });
  };
}

// Port 6: serve::RcuHub — the model hot-swap hand-off. A publisher pushes
// two generations while a reader pins, reads and re-reads across explicit
// yield points. Three invariants under every schedule: (a) grace — a value
// reachable through a pinned handle is never reclaimed while the pin is
// held; (b) no pointer/epoch skew — generation i carries payload i, and a
// handle must always agree with its own epoch (the hub swaps value+epoch
// as one pointer precisely so this can't tear); (c) the epoch a reader
// observes never regresses (the engine's swap-on-epoch-change handshake
// would otherwise double-swap or miss a model).

/// Hub payload with externally tracked liveness: reclamation flips the
/// slot so a reader can detect use-after-free without touching freed
/// memory. Atomics because a diverged schedule finishes in free-running
/// mode (real concurrency); relaxed is enough — the cooperative scheduler
/// serializes the non-diverged runs the invariants are judged on.
struct TrackedPayload {
  int v;
  std::shared_ptr<std::vector<std::atomic<int>>> alive;
  TrackedPayload(int val, std::shared_ptr<std::vector<std::atomic<int>>> a)
      : v(val), alive(std::move(a)) {
    // relaxed: liveness flag only; ordering rides on the hub's protocol.
    (*alive)[static_cast<std::size_t>(v)].store(1, std::memory_order_relaxed);
  }
  ~TrackedPayload() {
    // relaxed: liveness flag only; ordering rides on the hub's protocol.
    (*alive)[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
  }
};

Setup rcu_hub_setup() {
  return [](Trial& t) {
    auto alive = std::make_shared<std::vector<std::atomic<int>>>(3);
    auto hub = std::make_shared<elsa::serve::RcuHub<TrackedPayload>>(
        std::make_unique<const TrackedPayload>(0, alive));
    auto err = std::make_shared<std::string>();
    auto last_epoch = std::make_shared<std::uint64_t>(0);
    t.thread([hub, alive] {
      hub->publish(std::make_unique<const TrackedPayload>(1, alive));
      hub->publish(std::make_unique<const TrackedPayload>(2, alive));
    });
    t.thread([hub, alive, err, last_epoch] {
      for (int i = 0; i < 3 && err->empty(); ++i) {
        const auto h = hub->pin(0);
        const int v = h.get()->v;
        if (static_cast<std::uint64_t>(v) != h.epoch()) {
          *err = "pointer/epoch skew: payload " + std::to_string(v) +
                 " at epoch " + std::to_string(h.epoch());
          return;
        }
        if (h.epoch() < *last_epoch) {
          *err = "epoch regressed to " + std::to_string(h.epoch());
          return;
        }
        *last_epoch = h.epoch();
        // Give the publisher room to retire and scan while we hold the
        // pin; the pinned value must survive the collect pass.
        elsa::util::sched_point();
        // relaxed: detection probe of the liveness flag; the grace
        // guarantee under test is the hub's, not this load's.
        if ((*alive)[static_cast<std::size_t>(v)].load(
                std::memory_order_relaxed) == 0) {
          *err = "pinned payload " + std::to_string(v) +
                 " reclaimed during its grace period";
          return;
        }
      }
    });
    t.check([err]() -> std::string { return *err; });
  };
}

TEST(InterleaveRcuHub, GraceAndEpochSkewHoldEverywhere) {
  const Result res = explore_random(rcu_hub_setup(), 0xe15a07, rounds());
  EXPECT_CLEAN(res);
  EXPECT_GE(res.distinct, distinct_floor());
  EXPECT_EQ(res.diverged, 0u);  // pin/publish/collect never block
}

// Port 7: util::EventCount — the park/notify handshake behind every
// blocking ring wait and the fan-in consumer. One waiter announces itself
// (prepare_wait), re-checks its condition, then commits (parks) or
// cancels; one notifier publishes the condition, then notifies. No wakeup
// may be lost: whenever the waiter commits with the condition unseen, a
// notify has already moved the state off its key, so the park returns.
// The bodies stop short of the park itself (exhaustive suites take
// non-blocking bodies only) and the check asks signaled(key) instead.
// `announce_after_recheck` seeds the lost-wakeup bug: a notifier scheduled
// between the re-check and the announcement sees no sleeper and skips.

Setup eventcount_handshake_setup(bool announce_after_recheck) {
  return [announce_after_recheck](Trial& t) {
    struct State {
      elsa::util::EventCount ec;
      TracedAtomic<bool> published{false};
      bool committed = false;
      elsa::util::EventCount::Key key = 0;
    };
    auto st = std::make_shared<State>();
    t.thread([st, announce_after_recheck] {
      bool ready = false;
      if (announce_after_recheck) {
        ready = st->published.load(std::memory_order_acquire);
        st->key = st->ec.prepare_wait();
      } else {
        st->key = st->ec.prepare_wait();
        ready = st->published.load(std::memory_order_acquire);
      }
      st->committed = !ready;
    });
    t.thread([st] {
      st->published.store(true, std::memory_order_release);
      st->ec.notify_all();
    });
    t.check([st]() -> std::string {
      if (st->committed && !st->ec.signaled(st->key))
        return "lost wakeup: the waiter parked with the condition unseen "
               "and no notify moved the state off its key";
      return "";
    });
  };
}

// ---------------------------------------------------------------------------
// Bounded-exhaustive enumeration: every schedule within the preemption
// bound, for the straight-line (guaranteed-terminating) protocols.

TEST(InterleaveExhaustive, EventCountParkNeverLosesAWakeup) {
  const Result res = explore_exhaustive(eventcount_handshake_setup(false),
                                        exhaustive_options());
  EXPECT_CLEAN(res);
  EXPECT_EQ(res.diverged, 0u);
  EXPECT_TRUE(res.exhausted) << res.schedules << " schedules";
  EXPECT_GE(res.schedules, 10u);
}

TEST(InterleaveExhaustive, AdvisorTapWithinPreemptionBound) {
  const Result res = explore_exhaustive(advisor_tap_setup(),
                                        exhaustive_options());
  EXPECT_CLEAN(res);
  EXPECT_EQ(res.diverged, 0u);
  // Either the bounded space was fully covered or the cap cut it off —
  // both are fine, but the run must be substantive.
  EXPECT_TRUE(res.exhausted || res.schedules == exhaustive_options().max_schedules);
  EXPECT_GE(res.schedules, 50u);
}

TEST(InterleaveExhaustive, WatchdogHandshakeWithinPreemptionBound) {
  const Result res =
      explore_exhaustive(watchdog_bounded_setup(), exhaustive_options());
  EXPECT_CLEAN(res);
  EXPECT_EQ(res.diverged, 0u);
  EXPECT_GE(res.schedules, 20u);
}

// ---------------------------------------------------------------------------
// Determinism: the same seed must produce bit-identical schedules. An
// always-failing check records round 0's trace; two runs must agree, and a
// different seed must diverge.

Setup trace_probe_setup() {
  return [](Trial& t) {
    auto ring = std::make_shared<elsa::serve::SpscRing<int>>(2);
    t.thread([ring] {
      for (int i = 0; i < 3; ++i) ring->offer(i);
    });
    t.thread([ring] {
      for (int i = 0; i < 3; ++i) ring->try_pop();
    });
    t.check([]() -> std::string { return "probe"; });  // always record
  };
}

TEST(InterleaveDeterminism, SameSeedSameSchedule) {
  const Result a = explore_random(trace_probe_setup(), 42, 1);
  const Result b = explore_random(trace_probe_setup(), 42, 1);
  ASSERT_TRUE(a.failed && b.failed);
  ASSERT_FALSE(a.fail_trace.empty());
  EXPECT_EQ(a.fail_trace, b.fail_trace);
  EXPECT_EQ(a.fail_seed, b.fail_seed);

  const Result c = explore_random(trace_probe_setup(), 43, 1);
  EXPECT_NE(a.fail_trace, c.fail_trace);
}

TEST(InterleaveDeterminism, ReplayReproducesTheRecordedTrace) {
  const Result a = explore_random(trace_probe_setup(), 7, 1);
  ASSERT_TRUE(a.failed);
  const Result r = replay(trace_probe_setup(), a.fail_trace);
  EXPECT_EQ(r.fail_trace, a.fail_trace);
}

// ---------------------------------------------------------------------------
// The negative control: a deliberately weakened SPSC clone that publishes
// its tail cursor BEFORE writing the slot (the reordering window a correct
// ring closes by sequencing payload first, release-store after — compare
// serve::SpscRing::try_push, which writes the slot before its seq release
// store). The explorer must find the schedule where
// the consumer reads the unwritten slot, and the trace must replay.

class WeakSpscRing {
 public:
  explicit WeakSpscRing(std::size_t cap) : buf_(cap + 1, kUnwritten) {}

  bool try_push(int v) {
    elsa::util::sched_point();
    // relaxed: own-side cursor, only this thread writes it.
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    elsa::util::sched_point();
    const std::size_t h = head_.load(std::memory_order_acquire);
    if (next(t) == h) return false;
    // BUG (seeded): the cursor goes out before the payload, so a consumer
    // scheduled between these two lines pops an unwritten slot.
    elsa::util::sched_point();
    tail_.store(next(t), std::memory_order_release);
    elsa::util::sched_point();
    buf_[t] = v;
    return true;
  }

  bool try_pop(int& out) {
    elsa::util::sched_point();
    // relaxed: own-side cursor, only this thread writes it.
    const std::size_t h = head_.load(std::memory_order_relaxed);
    elsa::util::sched_point();
    const std::size_t t = tail_.load(std::memory_order_acquire);
    if (h == t) return false;
    elsa::util::sched_point();
    out = buf_[h];
    elsa::util::sched_point();
    head_.store(next(h), std::memory_order_release);
    return true;
  }

  static constexpr int kUnwritten = -1;

 private:
  std::size_t next(std::size_t i) const { return (i + 1) % buf_.size(); }

  std::vector<int> buf_;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
};

Setup weak_ring_setup() {
  return [](Trial& t) {
    auto ring = std::make_shared<WeakSpscRing>(2);
    auto got = std::make_shared<std::vector<int>>();
    t.thread([ring] {
      ring->try_push(100);
      ring->try_push(200);
    });
    t.thread([ring, got] {
      int v = 0;
      for (int i = 0; i < 2; ++i)
        if (ring->try_pop(v)) got->push_back(v);
    });
    t.check([got]() -> std::string {
      const std::vector<int> want = {100, 200};
      for (std::size_t i = 0; i < got->size(); ++i)
        if ((*got)[i] != want[i])
          return "popped unwritten/unordered value " +
                 std::to_string((*got)[i]) + " at index " + std::to_string(i);
      return "";
    });
  };
}

TEST(InterleaveNegative, ExplorerCatchesTheSeededPublicationBug) {
  const Result res = explore_exhaustive(weak_ring_setup(), exhaustive_options());
  ASSERT_TRUE(res.failed) << "seeded bug escaped " << res.schedules
                          << " schedules";
  std::printf("%s\n", res.replay_line().c_str());
  EXPECT_NE(res.failure.find("unwritten"), std::string::npos) << res.failure;

  // The recorded schedule is a deterministic reproducer.
  const Result again = replay(weak_ring_setup(), res.fail_trace);
  EXPECT_TRUE(again.failed) << "replay of the failing trace did not fail";
  EXPECT_EQ(again.failure, res.failure);
}

TEST(InterleaveNegative, RandomWalkAlsoCatchesTheSeededBug) {
  const Result res = explore_random(weak_ring_setup(), 0xe15a06, rounds());
  EXPECT_TRUE(res.failed) << "seeded bug escaped " << res.schedules
                          << " random schedules";
}

// ---------------------------------------------------------------------------
// Second negative control: a weakened RcuHub clone that loads the current
// pointer BEFORE declaring itself pinned — the exact ordering RcuHub::pin
// forbids (PINNED store first, pointer load second, both seq_cst). In the
// window between the two, a publisher's quiescence scan sees the slot
// quiescent, clears its pending bit and frees the value the reader is
// about to use. The explorer must find that schedule and replay it.

class WeakRcuHub {
 public:
  explicit WeakRcuHub(std::unique_ptr<const TrackedPayload> initial)
      : current_(initial.release()) {}

  ~WeakRcuHub() {
    // Teardown on the controlling thread, readers done: free everything.
    for (const TrackedPayload* v : freed_) delete v;
    for (const TrackedPayload* v : retired_) delete v;
    delete current_.load(std::memory_order_seq_cst);
  }

  const TrackedPayload* pin() {
    elsa::util::sched_point();
    // BUG (seeded): the pointer comes out before the pin goes up, so a
    // collect() scheduled between these two lines reclaims it.
    const TrackedPayload* v = current_.load(std::memory_order_seq_cst);
    elsa::util::sched_point();
    pinned_.store(true, std::memory_order_seq_cst);
    return v;
  }

  void unpin() {
    elsa::util::sched_point();
    pinned_.store(false, std::memory_order_seq_cst);
  }

  void publish(std::unique_ptr<const TrackedPayload> next) {
    elsa::util::sched_point();
    const TrackedPayload* old =
        current_.exchange(next.release(), std::memory_order_seq_cst);
    retired_.push_back(old);
    collect();
  }

  void collect() {
    std::size_t kept = 0;
    for (const TrackedPayload* v : retired_) {
      elsa::util::sched_point();
      if (!pinned_.load(std::memory_order_seq_cst)) {
        // Simulated reclamation: flip the liveness slot now, free the
        // allocation only at teardown — so the racing reader's detection
        // read is itself well-defined even when the bug fires.
        // relaxed: liveness flag only; the seeded bug is in the pin order.
        (*v->alive)[static_cast<std::size_t>(v->v)].store(
            0, std::memory_order_relaxed);
        freed_.push_back(v);
      } else {
        retired_[kept++] = v;
      }
    }
    retired_.resize(kept);
  }

 private:
  std::atomic<const TrackedPayload*> current_;
  std::atomic<bool> pinned_{false};  ///< single reader slot
  std::vector<const TrackedPayload*> retired_;  ///< publisher only
  std::vector<const TrackedPayload*> freed_;    ///< reclaimed, freed at dtor
};

Setup weak_hub_setup() {
  return [](Trial& t) {
    auto alive = std::make_shared<std::vector<std::atomic<int>>>(2);
    auto hub = std::make_shared<WeakRcuHub>(
        std::make_unique<const TrackedPayload>(0, alive));
    auto err = std::make_shared<std::string>();
    t.thread([hub, alive] {
      hub->publish(std::make_unique<const TrackedPayload>(1, alive));
    });
    t.thread([hub, alive, err] {
      const TrackedPayload* v = hub->pin();
      // relaxed: detection probe of the liveness flag (see above).
      if ((*alive)[static_cast<std::size_t>(v->v)].load(
              std::memory_order_relaxed) == 0)
        *err = "reader pinned an already-reclaimed payload";
      hub->unpin();
    });
    t.check([err]() -> std::string { return *err; });
  };
}

TEST(InterleaveNegative, ExplorerCatchesTheLoadBeforePinBug) {
  const Result res = explore_exhaustive(weak_hub_setup(), exhaustive_options());
  ASSERT_TRUE(res.failed) << "seeded pin-order bug escaped " << res.schedules
                          << " schedules";
  std::printf("%s\n", res.replay_line().c_str());
  EXPECT_NE(res.failure.find("reclaimed"), std::string::npos) << res.failure;

  const Result again = replay(weak_hub_setup(), res.fail_trace);
  EXPECT_TRUE(again.failed) << "replay of the failing trace did not fail";
  EXPECT_EQ(again.failure, res.failure);
}

// Third negative control: the EventCount waiter that announces itself
// after its re-check (Port 7's seeded mutant). The exhaustive explorer
// must find the schedule that loses the wakeup, and the trace must replay.
TEST(InterleaveNegative, ExplorerCatchesTheAnnounceAfterRecheckBug) {
  const Result res = explore_exhaustive(eventcount_handshake_setup(true),
                                        exhaustive_options());
  ASSERT_TRUE(res.failed) << "seeded lost wakeup escaped " << res.schedules
                          << " schedules";
  std::printf("%s\n", res.replay_line().c_str());
  EXPECT_NE(res.failure.find("lost wakeup"), std::string::npos) << res.failure;

  const Result again = replay(eventcount_handshake_setup(true), res.fail_trace);
  EXPECT_TRUE(again.failed) << "replay of the failing trace did not fail";
  EXPECT_EQ(again.failure, res.failure);
}

}  // namespace
