// Lock-free bounded ring: the serving layer's one queue type.
//
// One of these sits in front of every shard engine, replacing the old
// single mutex-guarded MPMC ring that every producer and the dispatcher
// contended on (the scalability bug: throughput *fell* as shards were
// added, because all of them serialized on one lock). Routing now happens
// on the producer's thread (serve/router.hpp) and each record takes
// exactly one hop — producer straight into its shard's ring — with no
// dispatcher and no mutex anywhere on the path. The same ring carries the
// tap streams out of the shard workers: one per shard in each FanIn
// (serve/fan_in.hpp), and one shared by every shard for the alarm feed.
//
// The ingest and fan-in topology is single-producer/single-consumer per
// ring: one feed thread (the replayer / syslog tap of a partition) pushes,
// the shard's worker pops. The implementation is nevertheless safe with
// several producers and consumers (PredictionService::submit is a public
// thread-safe API, and every shard worker offers into the alarm ring):
// every slot carries a sequence number (Vyukov's bounded queue protocol),
// and cursor advancement is a CAS — uncontended in the 1P1C fast path,
// where it costs the same single locked instruction as a plain atomic
// increment.
//
// Geometry: capacity rounds up to a power of two (index masking instead of
// modulo), and the producer cursor, consumer cursor and close flag live on
// separate cache lines so the two sides never false-share.
//
// Three overflow behaviours — the caller picks per call:
//   * push()       — block (bounded spin, then yield, then short sleeps)
//     until space frees up or the ring closes; backpressure.
//   * offer()      — never block; a full (or closed) ring drops the item
//     and counts it in dropped(); load shedding.
//   * push_evict() — never block, never reject while open: a full ring
//     discards its OLDEST queued item(s) (counted in evicted(), and
//     reported in `*evicted_out`) to admit the new one; freshness-first.
//
// close() makes every subsequent push attempt fail fast; items already
// queued remain poppable, and pop_wait() returns false once the ring is
// closed and drained. One closing race is deliberately tolerated: a push
// that passed the closed check just before close() may still land its
// item. ShardedEngine::finish() runs a serial try_pop drain after joining
// the workers, so such stragglers are still processed exactly once —
// conservation holds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/interleave.hpp"

namespace elsa::serve {

namespace detail {

/// Progressive waiting for the ring's blocking paths: burn a few cycles
/// first (the partner is usually mid-operation), then yield the core
/// (essential on boxes with fewer cores than threads), then sleep in
/// short bounded naps so an idle worker costs ~nothing.
class SpinBackoff {
 public:
  void pause() {
    ++spins_;
    if (spins_ < 16) return;
    if (spins_ < 64) {
      std::this_thread::yield();
      return;
    }
    // elsa-lint: allow(realtime-blocks): the bounded 100µs nap is the ring's
    // designed backpressure strategy — only the explicitly blocking variants
    // (push, pop_wait) reach it; the wait-free ones never construct a backoff.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  void reset() { spins_ = 0; }

 private:
  int spins_ = 0;
};

inline std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace detail

template <class T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    if (capacity == 0) throw std::invalid_argument("SpscRing: zero capacity");
    const std::size_t cap = detail::round_up_pow2(capacity);
    mask_ = cap - 1;
    slots_.reset(new Slot[cap]);
    for (std::size_t i = 0; i < cap; ++i)
      // relaxed: pre-publication initialization; the constructor's caller
      // publishes the ring to other threads with its own synchronization.
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Items currently queued (racy by nature; for monitoring).
  std::size_t size() const {
    util::sched_point();
    // relaxed: monitoring read of two independently advancing cursors; a
    // torn pair can only be off by in-flight operations.
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    util::sched_point();
    // relaxed: as above.
    const std::size_t h = head_.load(std::memory_order_relaxed);
    return t > h ? t - h : 0;
  }

  /// Records shed by offer() on overflow (or after close).
  std::uint64_t dropped() const {
    util::sched_point();
    // relaxed: standalone monotonic counter read for monitoring; no other
    // memory depends on its value.
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Queued items displaced by push_evict() on overflow.
  std::uint64_t evicted() const {
    util::sched_point();
    // relaxed: standalone monotonic counter read for monitoring; no other
    // memory depends on its value.
    return evicted_.load(std::memory_order_relaxed);
  }

  bool closed() const {
    util::sched_point();
    return closed_.load(std::memory_order_acquire);
  }

  /// Blocking push. Returns the queue depth after insertion (>= 1), or 0
  /// if the ring was closed — the item was not enqueued.
  // elsa-realtime: producer ingest; allocation- and lock-free (its one
  // blocking effect, the backoff nap, carries a reasoned allow above).
  std::size_t push(T item) {
    detail::SpinBackoff backoff;
    for (;;) {
      if (closed()) return 0;
      const std::size_t depth = try_push(item);
      if (depth != 0) return depth;
      backoff.pause();
    }
  }

  /// Non-blocking push. On a full (or closed) ring the item is dropped and
  /// counted; returns the depth after insertion, or 0 on drop.
  // elsa-realtime: wait-free shed-on-overflow ingest.
  std::size_t offer(T item) {
    if (!closed()) {
      const std::size_t depth = try_push(item);
      if (depth != 0) return depth;
    }
    util::sched_point();
    // relaxed: monotonic shed counter; readers only ever sum it, never
    // order other accesses against it.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  /// Non-blocking push that never rejects on overflow: a full ring evicts
  /// its oldest queued item to make room. Returns the depth after
  /// insertion, or 0 iff the ring is closed — only then was the item not
  /// enqueued. `*evicted_out` receives the number of items this call
  /// evicted (all counted in evicted()): usually 0 or 1, more when a
  /// consumer holds the slot ahead of the producer while the retry runs.
  // elsa-realtime: wait-free freshness-first ingest.
  std::size_t push_evict(T item, std::size_t* evicted_out = nullptr) {
    std::size_t kicked = 0;
    std::size_t depth = 0;
    for (;;) {
      if (closed()) break;
      depth = try_push(item);
      if (depth != 0) break;
      // A concurrent consumer may have advanced head_ but not yet released
      // its slot, so try_push can still see the ring full after a discard;
      // every discard that succeeds is one evicted item.
      if (discard_oldest()) ++kicked;
    }
    if (kicked != 0) {
      util::sched_point();
      // relaxed: monotonic eviction counter; readers only ever sum it,
      // never order other accesses against it.
      evicted_.fetch_add(kicked, std::memory_order_relaxed);
    }
    if (evicted_out) *evicted_out = kicked;
    return depth;
  }

  /// Non-blocking pop.
  // elsa-realtime: consumer fast path.
  std::optional<T> try_pop() {
    util::sched_point();
    // relaxed: own-side cursor hint; the CAS below re-validates it.
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      util::sched_point();
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::ptrdiff_t>(seq) -
                       static_cast<std::ptrdiff_t>(pos + 1);
      if (dif == 0) {
        util::sched_point();
        // relaxed: the slot's seq acquire/release pair carries the data;
        // the cursor itself orders nothing.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          T out = std::move(slot.val);
          slot.val = T{};  // release the popped item's resources now
          util::sched_point();
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return out;
        }
      } else if (dif < 0) {
        return std::nullopt;  // empty
      } else {
        util::sched_point();
        // relaxed: as above — re-read the cursor another consumer advanced.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Batched non-blocking pop: append up to `max` items to `out` in FIFO
  /// order; returns how many were taken.
  // elsa-realtime: batched consumer drain into a caller-owned buffer.
  std::size_t pop_n(std::vector<T>& out, std::size_t max) {
    std::size_t n = 0;
    while (n < max) {
      auto item = try_pop();
      if (!item) break;
      // elsa-lint: allow(realtime-allocates): appends into the caller's
      // long-lived drain buffer — worker loops reserve once and reuse it,
      // so steady state never grows capacity.
      out.push_back(std::move(*item));
      ++n;
    }
    return n;
  }

  /// Batched blocking pop: wait until at least one item is available (then
  /// drain up to `max` of them into `out`), or the ring is closed and
  /// empty — the false return, the consumer's exit signal.
  // elsa-realtime: worker wait loop (bounded backoff naps allowed above).
  bool pop_wait(std::vector<T>& out, std::size_t max) {
    detail::SpinBackoff backoff;
    for (;;) {
      if (pop_n(out, max) > 0) return true;
      if (closed()) {
        // Final drain: an in-flight push may have landed between the empty
        // pop and the closed observation.
        return pop_n(out, max) > 0;
      }
      backoff.pause();
    }
  }

  /// Stop accepting items: every later push attempt fails fast (push and
  /// push_evict return 0, offer counts a drop). Idempotent. Items already
  /// queued remain poppable.
  // elsa-realtime: a single store-release.
  void close() {
    util::sched_point();
    closed_.store(true, std::memory_order_release);
  }

 private:
  struct Slot {
    // elsa-atomic: seqlock — per-slot generation number (Vyukov protocol):
    // the release store of seq publishes val, the acquire load consumes it.
    std::atomic<std::size_t> seq;
    T val;
  };

  /// One enqueue attempt. Returns the approximate depth after insertion
  /// (clamped to >= 1), or 0 when the ring is full.
  std::size_t try_push(T& item) {
    util::sched_point();
    // relaxed: own-side cursor hint; the CAS below re-validates it.
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      util::sched_point();
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::ptrdiff_t>(seq) -
                       static_cast<std::ptrdiff_t>(pos);
      if (dif == 0) {
        util::sched_point();
        // relaxed: the slot's seq acquire/release pair carries the data;
        // the cursor itself orders nothing.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.val = std::move(item);
          util::sched_point();
          slot.seq.store(pos + 1, std::memory_order_release);
          util::sched_point();
          // relaxed: depth is a monitoring statistic; clamp covers the
          // consumer racing past our slot.
          const std::size_t h = head_.load(std::memory_order_relaxed);
          return pos + 1 > h ? pos + 1 - h : 1;
        }
      } else if (dif < 0) {
        return 0;  // full: the slot still holds an unconsumed generation
      } else {
        util::sched_point();
        // relaxed: as above — re-read the cursor another producer advanced.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Dequeue-and-discard the oldest queued item (push_evict's overflow
  /// leg). False when the ring turned out to be empty.
  bool discard_oldest() {
    util::sched_point();
    // relaxed: cursor hint; the CAS below re-validates it.
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      util::sched_point();
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::ptrdiff_t>(seq) -
                       static_cast<std::ptrdiff_t>(pos + 1);
      if (dif == 0) {
        util::sched_point();
        // relaxed: the slot's seq acquire/release pair carries the data;
        // the cursor itself orders nothing.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.val = T{};  // release the displaced item's resources now
          util::sched_point();
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty — the consumer drained it under us
      } else {
        util::sched_point();
        // relaxed: as above.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  /// Producer and consumer cursors on their own cache lines: the two sides
  /// of the ring never false-share, which is most of the point.
  // elsa-atomic: monotonic-relaxed — cursors order nothing themselves; all
  // publication rides the per-slot seq (seqlock), so relaxed CAS is sound.
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< next slot to fill
  // elsa-atomic: monotonic-relaxed — as tail_; seq carries the ordering.
  alignas(64) std::atomic<std::size_t> head_{0};  ///< next slot to drain
  // elsa-atomic: release-acquire-flag — close() publishes, closed() pairs.
  alignas(64) std::atomic<bool> closed_{false};
  // elsa-atomic: monotonic-relaxed — shed counter, summed for monitoring.
  std::atomic<std::uint64_t> dropped_{0};
  // elsa-atomic: monotonic-relaxed — eviction counter, summed only.
  std::atomic<std::uint64_t> evicted_{0};
};

}  // namespace elsa::serve
