// FanIn<T>: the consumer half of a per-shard tap (serve/tap.hpp) — one
// SpscRing per shard feeding one consumer thread. The checkpoint advisor
// (lossy: predictions) and the incremental miner (lossless: classified
// events) both run on it.
//
//   shard workers --publish(shard, item)--> SpscRing[shard]
//                                               | pop_n, shard order
//                                       consumer thread: take(shard, item)
//                                               | after a sweep
//                                            swept(final)
//
// The consumer sweeps every ring in shard order, handing each item to
// take(); after a sweep that took anything it calls swept(false) and sweeps
// again at once. After an empty sweep it checks the stop flag: once stop()
// is observed it runs one final sweep and swept(true), then exits; until
// then it spins briefly and parks on one util::EventCount that every ring
// notifies when an item lands, and stop() notifies too. Each shard's
// items reach take() in publish order, so a consumer sees exactly the
// per-shard streams the engines emit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "serve/spsc_ring.hpp"
#include "util/eventcount.hpp"

namespace elsa::serve {

template <class T>
class FanIn {
 public:
  /// What publish() does when its shard's ring is full.
  enum class Mode : std::uint8_t {
    kLossy,     ///< offer: drop the item and count it (wait-free)
    kLossless,  ///< push: wait for space (bounded backpressure)
  };
  using Take = std::function<void(std::size_t shard, T&& item)>;
  using Swept = std::function<void(bool final)>;

  /// `capacity` per shard ring, rounded up to a power of two.
  FanIn(std::size_t shards, std::size_t capacity, Mode mode) : mode_(mode) {
    rings_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
      rings_.push_back(std::make_unique<SpscRing<T>>(capacity, &ready_));
  }

  /// close() then stop(): never hangs, whether or not the consumer was
  /// stopped and even with a producer parked in a lossless publish. An
  /// owner whose take/swept callbacks touch its own members must stop()
  /// before those members are destroyed.
  ~FanIn() {
    close();
    stop();
  }

  FanIn(const FanIn&) = delete;
  FanIn& operator=(const FanIn&) = delete;

  std::size_t shards() const { return rings_.size(); }

  /// Producer side: at most one producer per shard at a time (the tap
  /// contract). True when the item was queued. Lossy: a full ring (or a
  /// shard index past shards()) drops the item and counts it. Lossless:
  /// waits for space; false only after close().
  // elsa-realtime: the shard worker's hand-off — one ring offer or push
  // (whose park on a full ring is allowed at its site), nothing else.
  bool publish(std::size_t shard, const T& item) {
    if (shard < rings_.size()) {
      SpscRing<T>& ring = *rings_[shard];
      if ((mode_ == Mode::kLossy ? ring.offer(item) : ring.push(item)) != 0)
        return true;
    }
    if (mode_ == Mode::kLossy)
      // relaxed: standalone monotonic counter; the consumer never orders
      // other memory against it.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Items a lossy publish dropped (0 in a healthy run).
  std::uint64_t dropped() const {
    // relaxed: standalone monotonic counter read for monitoring.
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Start the consumer thread (once). `take` runs for every item in
  /// per-shard publish order; `swept`, if set, after every sweep that took
  /// an item (false) and once after the final sweep (true).
  void start(Take take, Swept swept = nullptr) {
    consumer_ = std::thread([this, take = std::move(take),
                             swept = std::move(swept)] { run(take, swept); });
  }

  /// Stop the consumer and join it: its final sweep takes every item
  /// published before this call. Controlling thread only; idempotent, and
  /// a no-op if the consumer was never started.
  void stop() {
    // release: pairs with the consumer's acquire load, so its final sweep
    // sees everything published before the stop.
    stop_.store(true, std::memory_order_release);
    ready_.notify_all();
    if (consumer_.joinable()) consumer_.join();
  }

  /// Close every ring: a lossless publish parked on a full ring returns
  /// false, and every later publish fails fast. Queued items stay
  /// poppable. Abandoned teardown only.
  void close() {
    for (auto& r : rings_) r->close();
  }

 private:
  /// Items the consumer pops per pop_n call: a producer parked on a full
  /// lossless ring is woken once per batch, not once per item.
  static constexpr std::size_t kBatch = 64;

  bool sweep(const Take& take, std::vector<T>& batch) {
    bool any = false;
    for (std::size_t s = 0; s < rings_.size(); ++s)
      while (rings_[s]->pop_n(batch, kBatch) != 0) {
        for (T& item : batch) take(s, std::move(item));
        batch.clear();
        any = true;
      }
    return any;
  }

  void run(const Take& take, const Swept& swept) {
    std::vector<T> batch;
    batch.reserve(kBatch);
    for (;;) {
      bool took = false;
      ready_.await([&] {
        took = sweep(take, batch);
        // acquire: pairs with the release store in stop() — once observed,
        // every publish that happened before the stop is visible, so the
        // final sweep below cannot miss an item.
        return took || stop_.load(std::memory_order_acquire);
      });
      if (took) {
        if (swept) swept(false);
        continue;
      }
      sweep(take, batch);
      if (swept) swept(true);
      return;
    }
  }

  const Mode mode_;
  /// Every ring notifies it when an item lands, and stop() when the stop
  /// flag is up: the consumer parks on it. Declared before rings_, which
  /// point at it.
  util::EventCount ready_;
  std::vector<std::unique_ptr<SpscRing<T>>> rings_;
  // elsa-atomic: monotonic-relaxed — lossy overflow counter, summed only.
  std::atomic<std::uint64_t> dropped_{0};
  // elsa-atomic: release-acquire-flag — stop()'s release store is the
  // consumer's acquire-loaded exit signal.
  std::atomic<bool> stop_{false};
  std::thread consumer_;
};

}  // namespace elsa::serve
