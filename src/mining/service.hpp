// MinerService: a PredictionService with the incremental miner closed over
// it — the deployment that retires the offline retrain. It owns the live
// HELO classifier (producer-thread incremental template learning), taps the
// classified-event stream off every shard worker through a lossless
// serve::FanIn (blocking push: the miner must see EVERY event or the
// online≡batch equivalence is void), folds the merged stream on the
// fan-in's one consumer thread (the pump), and publishes refreshed rule
// models into the serving engines through the RCU-style ModelHub — shard
// workers hot-swap at batch boundaries without ever blocking the predict
// path.
//
//   producer -> PredictionService -> shard workers --feed--> predictions
//                  | live HELO          | publish(shard, ev)   blocking SPSC
//                  v                SpscRing[shard]
//              template ids             | try_pop              pump thread
//                                  watermark merge -> OnlineMiner.fold
//                                       | every publish_every folds
//                                  ModelHub.publish  ==RCU==>  shard swap
//
// Determinism across shard counts: each shard's event stream is
// time-monotone (one producer submits in trace order), so the pump folds
// only events strictly below the watermark — the minimum shard clock over
// *reachable* shards (a shard no partition routes to would pin the
// watermark at -inf forever) — sorted by the canonical event order. The
// resulting fold sequence equals the canonically sorted whole trace,
// whatever the shard count: `elsa mine --check` proves it by digest.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mining/miner.hpp"
#include "serve/fan_in.hpp"
#include "serve/service.hpp"

namespace elsa::mining {

struct MinerServiceConfig {
  /// Base serving configuration; its live_classifier / hub / event_tap
  /// fields are overwritten with the miner's own hooks.
  serve::ServiceConfig serve;
  MinerConfig miner;
  helo::MinerConfig classifier;
  /// Publish a refreshed model into the hub every this many folded events;
  /// 0 = mine silently and only materialise the final model at finish().
  /// A fold-count boundary (never wall clock) keeps the publish stream —
  /// and therefore the publish digest — identical across shard counts.
  std::size_t publish_every = 4096;
};

class MinerService final : public serve::EventTap {
 public:
  explicit MinerService(const topo::Topology& topo,
                        MinerServiceConfig cfg = {});
  ~MinerService() override;

  MinerService(const MinerService&) = delete;
  MinerService& operator=(const MinerService&) = delete;

  /// The underlying serving endpoint (submit records here — ONE producer
  /// thread, the live-classifier contract).
  serve::PredictionService& service() { return *service_; }
  const serve::PredictionService& service() const { return *service_; }

  /// EventTap: per-shard lossless hand-off (shard workers call this; a
  /// full ring blocks until the pump catches up).
  void publish(std::size_t shard, const serve::ClassifiedEvent& e) override;

  /// Finish the service (drain + merge), then drain the miner: after this
  /// returns every tapped event has been folded, the final model is built
  /// (classifier embedded) and digested. Idempotent.
  void finish(std::int64_t t_end_ms);

  /// Final mined model (valid after finish()).
  const core::OfflineModel& final_model() const { return final_model_; }
  /// Digest of the final model — the online≡batch gate's primary witness.
  std::uint64_t final_digest() const { return final_digest_; }
  /// Chained digest over every interim hub publish (second witness: the
  /// whole publish *stream*, not just the end state, matches batch).
  std::uint64_t publish_stream_digest() const { return publish_digest_; }
  std::uint64_t publishes() const { return publishes_; }
  /// Events folded by the miner (== events tapped once finished).
  std::uint64_t folded() const { return miner_.folded(); }

  /// The live classifier (stable address for the service's lifetime).
  const helo::TemplateMiner& classifier() const { return live_; }
  serve::ModelHub& hub() { return hub_; }

 private:
  /// Per-shard event ring capacity. Pushes BLOCK when full (bounded
  /// backpressure onto the shard worker): the mined stream is lossless by
  /// contract.
  static constexpr std::size_t kRingCapacity = 8192;

  /// Fold every pending event strictly below `watermark_ms`, in canonical
  /// order, publishing at fold-count boundaries. Pump thread only.
  void fold_below(std::int64_t watermark_ms);
  void publish_model();
  std::int64_t watermark() const;

  // Declaration order is teardown order in reverse: service_ (declared
  // last) destroys FIRST, while the fan-in/hub/classifier its workers may
  // still touch during teardown are alive until after it is gone.
  helo::TemplateMiner live_;
  serve::ModelHub hub_;
  serve::FanIn<serve::ClassifiedEvent> fan_in_;
  OnlineMiner miner_;                    ///< pump thread, then controlling
  std::vector<bool> reachable_;          ///< shards some partition routes to
  std::vector<std::int64_t> shard_clock_;               ///< pump thread only
  std::vector<std::vector<serve::ClassifiedEvent>> pending_;  ///< pump only
  std::vector<serve::ClassifiedEvent> scratch_;               ///< pump only
  std::uint64_t publish_digest_ = 0;     ///< pump thread, then controlling
  std::uint64_t publishes_ = 0;          ///< pump thread, then controlling
  std::size_t publish_every_ = 0;
  core::OfflineModel empty_model_;       ///< service ctor model (no rules)
  serve::ServeMetrics* metrics_ = nullptr;  ///< service_'s, cached
  std::unique_ptr<serve::PredictionService> service_;
  bool finished_ = false;  ///< controlling thread only
  core::OfflineModel final_model_;       ///< controlling thread, post-join
  std::uint64_t final_digest_ = 0;
};

}  // namespace elsa::mining
