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
//   * push()       — block until space frees up or the ring closes;
//     backpressure.
//   * offer()      — never block; a full (or closed) ring drops the item
//     and counts it in dropped(); load shedding.
//   * push_evict() — never block, never reject while open: a full ring
//     discards its OLDEST queued item(s) (counted in evicted(), and
//     reported in `*evicted_out`) to admit the new one; freshness-first.
//
// Blocking waits (push on a full ring, pop_wait on an empty one) spin
// briefly, then park on a util::EventCount (util/eventcount.hpp): every
// landed item notifies the ring's "readable" eventcount, and every drained
// batch (pop_n, try_pop) its "writable" one. A notify costs one fence and
// one load unless a thread is parked. A ring can be handed a shared
// readable eventcount, so that one consumer parks on several rings
// (serve/fan_in.hpp).
//
// close() makes every subsequent push attempt fail fast and wakes every
// parked thread; items already queued remain poppable, and pop_wait()
// returns false once the ring is closed and drained. One closing race is
// deliberately tolerated: a push that passed the closed check just before
// close() may still land its item. ShardedEngine::finish() runs a serial
// try_pop drain after joining the workers, so such stragglers are still
// processed exactly once — conservation holds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/eventcount.hpp"
#include "util/interleave.hpp"

namespace elsa::serve {

namespace detail {

inline std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace detail

template <class T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2). `readable`,
  /// if set, is the eventcount this ring notifies when an item lands and
  /// pop_wait() parks on, instead of the ring's own; it must outlive the
  /// ring.
  explicit SpscRing(std::size_t capacity,
                    util::EventCount* readable = nullptr)
      : readable_(readable != nullptr ? readable : &own_readable_) {
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
  // blocking effect, the park on a full ring, carries a reasoned allow in
  // util/eventcount.hpp).
  std::size_t push(T item) {
    std::size_t depth = 0;
    writable_.await([&] {
      if (closed()) return true;
      depth = try_push(item);
      return depth != 0;
    });
    if (depth != 0) readable_->notify_all();
    return depth;
  }

  /// Non-blocking push. On a full (or closed) ring the item is dropped and
  /// counted; returns the depth after insertion, or 0 on drop.
  // elsa-realtime: wait-free shed-on-overflow ingest.
  std::size_t offer(T item) {
    if (!closed()) {
      const std::size_t depth = try_push(item);
      if (depth != 0) {
        readable_->notify_all();
        return depth;
      }
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
    if (depth != 0) readable_->notify_all();
    return depth;
  }

  /// Non-blocking pop. Wakes a producer parked on a full ring; a consumer
  /// that drains many items should prefer pop_n, which wakes once per batch.
  // elsa-realtime: consumer fast path.
  std::optional<T> try_pop() {
    std::optional<T> item = take_one();
    if (item) writable_.notify_all();
    return item;
  }

  /// Batched non-blocking pop: append up to `max` items to `out` in FIFO
  /// order; returns how many were taken. Wakes a producer parked on a full
  /// ring once per call, not once per item.
  // elsa-realtime: batched consumer drain into a caller-owned buffer.
  std::size_t pop_n(std::vector<T>& out, std::size_t max) {
    std::size_t n = 0;
    while (n < max) {
      auto item = take_one();
      if (!item) break;
      // elsa-lint: allow(realtime-allocates): appends into the caller's
      // long-lived drain buffer — worker loops reserve once and reuse it,
      // so steady state never grows capacity.
      out.push_back(std::move(*item));
      ++n;
    }
    if (n != 0) writable_.notify_all();
    return n;
  }

  /// Batched blocking pop: wait until at least one item is available (then
  /// drain up to `max` of them into `out`), or the ring is closed and
  /// empty — the false return, the consumer's exit signal.
  // elsa-realtime: worker wait loop (the park carries a reasoned allow in
  // util/eventcount.hpp).
  bool pop_wait(std::vector<T>& out, std::size_t max) {
    std::size_t n = 0;
    readable_->await([&] {
      n = pop_n(out, max);
      if (n != 0) return true;
      if (!closed()) return false;
      // Final drain: an in-flight push may have landed between the empty
      // pop and the closed observation.
      n = pop_n(out, max);
      return true;
    });
    return n != 0;
  }

  /// Stop accepting items: every later push attempt fails fast (push and
  /// push_evict return 0, offer counts a drop), and every parked producer
  /// and consumer wakes. Idempotent. Items already queued remain poppable.
  // elsa-realtime: a store-release plus two notifies.
  void close() {
    util::sched_point();
    closed_.store(true, std::memory_order_release);
    writable_.notify_all();
    readable_->notify_all();
  }

 private:
  struct Slot {
    // elsa-atomic: seqlock — per-slot generation number (Vyukov protocol):
    // the release store of seq publishes val, the acquire load consumes it.
    std::atomic<std::size_t> seq;
    T val;
  };

  /// One dequeue attempt; wakes nobody.
  std::optional<T> take_one() {
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
  /// Notified when an item lands; read by both sides, so it stays off the
  /// producer's line (a consumer reading it there on every wait costs the
  /// producer's tail CAS a cache miss per item).
  util::EventCount* readable_;
  /// Producer and consumer cursors on their own cache lines: the two sides
  /// of the ring never false-share, which is most of the point. Each
  /// eventcount shares the line of the side that notifies it on every
  /// operation; the other side writes it only when it parks.
  // elsa-atomic: monotonic-relaxed — cursors order nothing themselves; all
  // publication rides the per-slot seq (seqlock), so relaxed CAS is sound.
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< next slot to fill
  util::EventCount own_readable_;  ///< pop_wait parks here unless shared
  // elsa-atomic: monotonic-relaxed — as tail_; seq carries the ordering.
  alignas(64) std::atomic<std::size_t> head_{0};  ///< next slot to drain
  util::EventCount writable_;  ///< push parks here; pops notify it
  // elsa-atomic: release-acquire-flag — close() publishes, closed() pairs.
  alignas(64) std::atomic<bool> closed_{false};
  // elsa-atomic: monotonic-relaxed — shed counter, summed for monitoring.
  std::atomic<std::uint64_t> dropped_{0};
  // elsa-atomic: monotonic-relaxed — eviction counter, summed only.
  std::atomic<std::uint64_t> evicted_{0};
};

}  // namespace elsa::serve
