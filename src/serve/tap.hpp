// Tap<T>: the serve path's one per-shard subscriber interface. The shard
// engines push two streams through it — every issued prediction
// (Tap<core::Prediction>: the streaming alarm feed behind poll_alarms and
// the checkpoint advisor) and every classified event
// (EventTap = Tap<ClassifiedEvent>: the incremental miner). A tap is handed
// the *shard index* of the emitting engine, which makes a lock-free
// per-shard hand-off possible on the consumer side: for any given shard
// index, calls are serialized — they run on that shard's worker thread, on
// its watchdog-restarted successor (the join publishes the predecessor's
// writes), or on the finishing thread after every worker has joined — so
// exactly one producer per shard exists at any instant.
//
// Contract for implementations:
//   * A lossy tap (every prediction tap) is wait-free: publish() never
//     blocks, never takes a lock the predict hot path could contend on,
//     never allocates unboundedly. It drops and counts when a bounded
//     buffer is full (serve::SpscRing::offer).
//   * A lossless tap (the miner's event tap) MAY block, with bounded
//     backpressure into a per-shard ring (serve::SpscRing::push): the
//     miner's determinism proof needs every event, so the contract trades
//     wait-freedom for conservation. It must guarantee eventual progress
//     (a draining consumer or a closed ring), never a lock shared across
//     shards.
//   * publish() is called once per item per run. The drain cursor in
//     ShardedEngine::drain_shard streams each prediction exactly once
//     across injected worker deaths and restarts, and a fault-killed
//     worker's unprocessed carryover is published by whoever processes
//     it, never twice.
//   * The tap must outlive the engine/service it is registered with.
//
// serve/fan_in.hpp is the consumer half both services share: per-shard
// rings, one consumer thread, and the stop/final-sweep handshake.
#pragma once

#include <cstddef>
#include <cstdint>

#include "elsa/online.hpp"

namespace elsa::serve {

template <class T>
class Tap {
 public:
  virtual ~Tap() = default;

  /// One item from shard `shard`, in shard-stream order. Per-shard calls
  /// are serialized, cross-shard calls are concurrent.
  virtual void publish(std::size_t shard, const T& item) = 0;
};

/// One classified record as the shard engine consumed it: everything the
/// incremental miner (src/mining) needs, nothing else.
struct ClassifiedEvent {
  std::int64_t time_ms = 0;
  std::int32_t node_id = -1;
  std::uint32_t tmpl = 0;
  std::uint8_t severity = 0;  ///< simlog::Severity ordinal
};

using EventTap = Tap<ClassifiedEvent>;

}  // namespace elsa::serve
