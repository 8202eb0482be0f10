// AdvisorService: a PredictionService with the checkpoint advisor closed
// over it. It registers itself as the serve path's prediction tap and hands
// each shard's predictions through a lossy serve::FanIn (one SpscRing per
// shard — the tap contract guarantees one producer per shard index), whose
// consumer thread feeds them to the CheckpointAdvisor. The predict hot
// path therefore never blocks on advisor work: a full ring drops the
// event and counts it (advisor_dropped in the metrics scrape; the
// deterministic-replay tests assert zero drops at the ring capacity).
//
//   producers -> PredictionService -> shard workers
//                                        | publish(shard, p)   wait-free
//                                   SpscRing[shard]
//                                        | try_pop             fan-in thread
//                                  CheckpointAdvisor -> CheckpointSchedule
#pragma once

#include <cstdint>
#include <memory>

#include "advisor/advisor.hpp"
#include "serve/fan_in.hpp"
#include "serve/service.hpp"

namespace elsa::advisor {

struct AdvisorServiceConfig {
  /// Base serving configuration; its `tap` field is overwritten with the
  /// advisor's own hook.
  serve::ServiceConfig serve;
  AdvisorConfig advisor;
};

class AdvisorService final : public serve::Tap<core::Prediction> {
 public:
  AdvisorService(const topo::Topology& topo, const core::OfflineModel& model,
                 AdvisorServiceConfig cfg = {});
  ~AdvisorService() override;

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// The underlying serving endpoint (submit records here).
  serve::PredictionService& service() { return *service_; }
  const serve::PredictionService& service() const { return *service_; }

  CheckpointAdvisor& advisor() { return advisor_; }
  const CheckpointAdvisor& advisor() const { return advisor_; }

  /// Prediction tap: wait-free per-shard hand-off (shard workers call this).
  void publish(std::size_t shard, const core::Prediction& p) override;

  /// Finish the service (drain + merge), then drain the advisor: after
  /// this returns every published prediction has reached the advisor and
  /// the fan-in thread has exited. Idempotent.
  void finish(std::int64_t t_end_ms);

  /// Predictions lost to a full ring (0 in a healthy run).
  std::uint64_t dropped() const { return fan_in_.dropped(); }

  /// Advisor snapshot (canonical order; see CheckpointSchedule).
  CheckpointSchedule schedule() const { return advisor_.schedule(); }

 private:
  /// Per-shard ring capacity, in predictions. Generous: a drop costs
  /// schedule fidelity (and determinism), so the rings are sized for the
  /// full between-sweeps burst of a shard.
  static constexpr std::size_t kRingCapacity = 4096;

  CheckpointAdvisor advisor_;
  serve::FanIn<core::Prediction> fan_in_;
  serve::ServeMetrics* metrics_ = nullptr;  ///< service_'s, cached for publish
  std::unique_ptr<serve::PredictionService> service_;
  bool finished_ = false;  ///< controlling thread only
};

}  // namespace elsa::advisor
