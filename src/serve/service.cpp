#include "serve/service.hpp"

#include <algorithm>
#include <utility>

namespace elsa::serve {

PredictionService::PredictionService(const topo::Topology& topo,
                                     const core::OfflineModel& model,
                                     ServiceConfig cfg)
    : classifier_(&model.helo),
      live_classifier_(cfg.live_classifier),
      unknown_tmpl_(static_cast<std::uint32_t>(
          std::max(model.helo.size(), model.profiles.size()))),
      total_nodes_(topo.total_nodes()),
      overflow_(cfg.overflow) {
  std::vector<Tap<core::Prediction>*> taps{&alarms_};
  if (cfg.tap) taps.push_back(cfg.tap);
  sharded_ = std::make_unique<ShardedEngine>(topo, model.chains,
                                             model.profiles, std::move(cfg),
                                             std::move(taps), &metrics_);
}

PredictionService::~PredictionService() = default;

std::uint32_t PredictionService::classify(std::string_view message) const {
  // Live path: learn unseen message shapes as fresh template ids (mutates
  // the external miner — legal from this const member because constness
  // stops at the pointer). Single producer thread by contract, so no
  // synchronization is needed here.
  if (live_classifier_ != nullptr) return live_classifier_->classify(message);
  const std::uint32_t tid = classifier_->classify_const(message);
  return tid == helo::TemplateMiner::kNoTemplate ? unknown_tmpl_ : tid;
}

bool PredictionService::valid(const simlog::LogRecord& rec) const {
  return rec.node_id >= -1 && rec.node_id < total_nodes_ && rec.time_ms >= 0;
}

SubmitResult PredictionService::submit_result(const simlog::LogRecord& rec,
                                              bool blocking) {
  if (!valid(rec)) {
    metrics_.on_submit();
    metrics_.on_quarantine();
    {
      util::MutexLock lk(q_mu_);
      if (quarantine_.size() < kQuarantineSample) {
        quarantine_.push_back(rec);
      } else {
        quarantine_[q_next_] = rec;
        q_next_ = (q_next_ + 1) % kQuarantineSample;
      }
    }
    return SubmitResult::kQuarantined;
  }

  // Classify and route on this (the producer's) thread, then push straight
  // into the target shard's lock-free ring — no dispatcher hop, no mutex.
  const ShardedEngine::Item item{rec.time_ms, rec.node_id,
                                 classify(rec.message),
                                 static_cast<std::uint8_t>(rec.severity),
                                 ServeMetrics::Clock::now()};
  SpscRing<ShardedEngine::Item>& ring =
      sharded_->ingest(sharded_->shard_of(rec.node_id));
  std::size_t depth = 0;
  if (blocking) {
    switch (overflow_) {
      case OverflowPolicy::kBlock:
        depth = ring.push(item);
        if (depth == 0) return SubmitResult::kClosed;
        break;
      case OverflowPolicy::kDropOldest: {
        std::size_t evicted = 0;
        depth = ring.push_evict(item, &evicted);
        // The displaced records were already counted ingested + in; they
        // are now shed records, keeping conservation exact.
        if (evicted != 0) metrics_.on_shed(evicted);
        if (depth == 0) return SubmitResult::kClosed;
        break;
      }
      case OverflowPolicy::kShed:
        depth = ring.offer(item);
        break;
    }
  } else {
    depth = ring.offer(item);
  }
  if (depth == 0) {
    // offer() cannot say whether it refused for "full" or "closed"; ask.
    // A closed service never counts the attempt (nothing downstream will
    // balance it); a full ring is a shed.
    if (ring.closed()) return SubmitResult::kClosed;
    metrics_.on_submit();
    metrics_.on_shed();
    return SubmitResult::kShed;
  }
  metrics_.on_submit();
  metrics_.on_ingest(depth);
  return SubmitResult::kQueued;
}

bool PredictionService::submit(const simlog::LogRecord& rec) {
  return submit_result(rec, /*blocking=*/true) != SubmitResult::kClosed;
}

std::vector<simlog::LogRecord> PredictionService::quarantined_sample() const {
  util::MutexLock lk(q_mu_);
  std::vector<simlog::LogRecord> out;
  out.reserve(quarantine_.size());
  // Oldest-first: the ring overwrites at q_next_, so that slot is oldest.
  for (std::size_t i = 0; i < quarantine_.size(); ++i)
    out.push_back(quarantine_[(q_next_ + i) % quarantine_.size()]);
  return out;
}

void PredictionService::finish(std::int64_t t_end_ms) {
  if (finished_) return;
  finished_ = true;
  sharded_->finish(t_end_ms);
  metrics_.stop();
}

std::size_t PredictionService::poll_alarms(std::vector<core::Prediction>& out) {
  std::size_t n = 0;
  while (auto p = alarms_.ring.try_pop()) {
    out.push_back(std::move(*p));
    ++n;
  }
  return n;
}

}  // namespace elsa::serve
