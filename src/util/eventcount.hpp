// EventCount: how a thread on the data path waits for another — poll for a
// bounded spin, then park on a futex until a notifier moves the epoch.
//
// Every blocking wait in the serve layer waits for a lock-free condition:
// an SpscRing holds an item (pop_wait) or has room (push), or one of a
// FanIn's rings holds an item. No mutex guards those conditions, so there
// is nothing for a condition variable to ride on, and a timed nap makes
// the nap's length the wait's latency. An eventcount parks on any such
// condition instead:
//
//   waiter    poll ready() for up to kSpinBudget, then loop:
//               key = prepare_wait()   announce a sleeper
//               if (ready()) return    re-check: a publish may have landed
//                                      before the announcement
//               commit_wait(key)       park until the state moves off key
//   notifier  publish (the caller's own store), then notify_all(): one
//             seq_cst fence and one load of the state; only when a sleeper
//             is announced, clear it, bump the epoch and wake the parked.
//
// No wakeup is lost. The waiter's announce-then-re-check and the
// notifier's publish-then-load are a Dekker pair with a seq_cst fence on
// each side, so at least one side sees the other's write: the re-check
// sees the publication, or the notifier sees the sleeper and moves the
// epoch, after which commit_wait(key) cannot sleep (the futex compares the
// state with `key` atomically with going to sleep).
//
// State: one 32-bit futex word, epoch << 1 | sleeper bit. The notifier
// that finds the bit set clears it and bumps the epoch in one CAS (odd + 1
// is the next even), so only the first notify after a park pays for the
// wake; later ones find the bit clear. A waiter whose re-check succeeds
// just returns and leaves its bit set, which costs the next notifier one
// needless CAS and wake call. Every waiter is woken (notify_all): a ring
// may have several parked producers or consumers, and they share the bit.
//
// Under ELSA_INTERLEAVE_HARNESS (util/interleave.hpp) every access to the
// state is a schedule point, the spin is skipped and the park polls the
// state at schedule points: a virtual thread blocked in the kernel would
// keep the explorer's token and stall every other virtual thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/interleave.hpp"

namespace elsa::util {

// GCC's ThreadSanitizer does not model standalone fences and warns at each
// one (-Wtsan). The two fences below order only the sleeper handshake; the
// data every waiter consumes is handed over by acquire/release pairs that
// TSan does model.
#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif

class EventCount {
 public:
  /// The state a waiter announced itself at.
  using Key = std::uint32_t;

  /// How long await() polls before it parks. Spinning for about as long as
  /// a park costs bounds the waste to 2x: it is sized to the futex
  /// wake-to-run time of a 4-vCPU Xeon VM (p50 15-18 us, p90 41-45 us).
  /// EXPERIMENTS.md has the sweep that chose it.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Block until ready() returns true. ready() runs on every poll and once
  /// more after each announcement; it may consume (a pop), because await()
  /// returns the first time it reports true.
  template <class Ready>
  void await(Ready&& ready) {
    if (spin(ready)) return;
    for (;;) {
      const Key key = prepare_wait();
      if (ready()) return;
      commit_wait(key);
      if (ready()) return;
    }
  }

  /// Waiter, step 1: announce a sleeper; returns the key to commit with.
  /// The caller re-checks its condition next, and commits only if it still
  /// does not hold. A waiter that finds it holding just proceeds.
  Key prepare_wait() {
    sched_point();
    const Key key =
        state_.fetch_or(kSleeper, std::memory_order_seq_cst) | kSleeper;
    // The caller's re-check loads are acquire loads, which the seq_cst RMW
    // above does not order after itself.
    // elsa-lint: allow(fence-undocumented): the waiter half of the Dekker
    // pair (announce, then re-check); pairs with notify_all()'s fence.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return key;
  }

  /// Waiter, step 2: park until a notify moves the state off `key`.
  void commit_wait(Key key) {
#if defined(ELSA_INTERLEAVE_HARNESS)
    while (!signaled(key)) {
    }
#else
    // Only the blocking paths get here (SpscRing push / pop_wait, the FanIn
    // consumer); offer, push_evict, try_pop and pop_n never wait.
    // elsa-lint: allow(realtime-blocks): the park, once the spin budget is
    // spent and the re-check failed; a notify ends it.
    state_.wait(key, std::memory_order_acquire);
#endif
  }

  /// True once a notify has moved the state off `key`: commit_wait(key)
  /// would return at once.
  bool signaled(Key key) const {
    sched_point();
    return state_.load(std::memory_order_acquire) != key;
  }

  /// Notifier: call after publishing. Wakes every parked waiter if one is
  /// announced; otherwise costs one fence and one load. Never blocks.
  void notify_all() {
    // elsa-lint: allow(fence-undocumented): the notifier half of the
    // Dekker pair (publish, then load the sleeper bit); pairs with
    // prepare_wait()'s fence.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    sched_point();
    // relaxed: the fence above orders this load after the publication.
    Key s = state_.load(std::memory_order_relaxed);
    if ((s & kSleeper) == 0) return;
    sched_point();
    // One attempt suffices: a failed CAS means another notifier moved the
    // epoch since the load, waking every waiter announced before it, and a
    // waiter announced after the load re-checks after this side's fence.
    // release: a waiter whose futex load sees the new epoch also sees the
    // publication. relaxed: the failure order; a failed CAS changes nothing.
    if (state_.compare_exchange_strong(s, s + 1, std::memory_order_release,
                                       std::memory_order_relaxed))
      state_.notify_all();
  }

 private:
  static constexpr Key kSleeper = 1;
  /// Polls before the first clock read: steady_clock::now() costs as much
  /// as several polls, and most waits end within a few.
  static constexpr int kPollsBeforeClock = 64;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  /// Poll ready() for up to kSpinBudget; true as soon as it holds.
  template <class Ready>
  static bool spin(Ready& ready) {
#if defined(ELSA_INTERLEAVE_HARNESS)
    // A clock-bounded spin would tie the explored schedule to wall time,
    // and the park is the path worth exploring.
    return ready();
#else
    for (int i = 0; i < kPollsBeforeClock; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    do {
      if (ready()) return true;
      cpu_relax();
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
#endif
  }

  // elsa-atomic: eventcount — epoch << 1 | sleeper bit. Waiters announce
  // with a seq_cst fetch_or; notifiers load it relaxed behind a seq_cst
  // fence and clear-and-bump it with a release CAS.
  std::atomic<Key> state_{0};
};

#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace elsa::util
