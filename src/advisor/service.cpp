#include "advisor/service.hpp"

#include <algorithm>

namespace elsa::advisor {

AdvisorService::AdvisorService(const topo::Topology& topo,
                               const core::OfflineModel& model,
                               AdvisorServiceConfig cfg)
    : advisor_(cfg.advisor, std::max(1, topo.nodes_per_nodecard() *
                                            topo.nodecards_per_midplane())),
      fan_in_(std::max<std::size_t>(1, cfg.serve.shards), kRingCapacity,
              serve::FanIn<core::Prediction>::Mode::kLossy) {
  cfg.serve.tap = this;
  service_ =
      std::make_unique<serve::PredictionService>(topo, model, cfg.serve);
  // Bind the metrics before any prediction can flow: producers cannot
  // submit until this constructor returns, and the consumer starts below.
  metrics_ = &service_->raw_metrics();
  advisor_.set_metrics(metrics_);
  fan_in_.start([this](std::size_t, core::Prediction&& p) {
    advisor_.on_prediction(p);
  });
}

AdvisorService::~AdvisorService() {
  // Retire the consumer while the advisor and the metrics it reports to
  // are alive. service_ tears down after this body; any prediction its
  // draining workers still publish lands in fan_in_ (destroyed after
  // service_) and is simply never consumed — the advisor was abandoned,
  // not finished.
  fan_in_.stop();
}

// elsa-realtime: runs on the shard worker inside the prediction hot loop —
// one ring offer plus drop accounting, never a lock. The offer copies the
// prediction's node list: one allocation per prediction, not per record.
void AdvisorService::publish(std::size_t shard, const core::Prediction& p) {
  if (!fan_in_.publish(shard, p) && metrics_) metrics_->on_advisor_drop();
}

void AdvisorService::finish(std::int64_t t_end_ms) {
  if (finished_) return;
  finished_ = true;
  // After service finish() returns, every prediction has been published
  // (drain_shard ran to completion on every shard) …
  service_->finish(t_end_ms);
  // … so stopping the fan-in guarantees its final sweep consumes them all.
  fan_in_.stop();
}

}  // namespace elsa::advisor
