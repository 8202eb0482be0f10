// Advisor suite: estimator hysteresis and directive rate limiting
// (hand-stepped trace time), partition mapping, directive scoring,
// and the service-level properties — byte-identical CheckpointSchedule
// across shard counts and directive conservation under chaos plans.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "advisor/advisor.hpp"
#include "advisor/service.hpp"
#include "elsa/pipeline.hpp"
#include "faultinject/injector.hpp"
#include "faultinject/plan.hpp"
#include "serve/replayer.hpp"
#include "simlog/scenario.hpp"

namespace {

using namespace elsa;

// ------------------------------------------------------- advisor units --

core::Prediction mk(std::int64_t t_ms, std::int32_t node, double conf,
                    std::int64_t lead_ms) {
  core::Prediction p;
  p.issue_time_ms = t_ms;
  p.predicted_time_ms = t_ms + lead_ms;
  if (node >= 0) p.nodes.push_back(node);
  p.confidence = conf;
  p.lead_ms = lead_ms;
  return p;
}

advisor::AdvisorConfig unit_config() {
  advisor::AdvisorConfig cfg;
  cfg.precision = 1.0;
  cfg.recall = 1.0;
  cfg.episodes_per_failure = 1.0;  // gap IS the MTTF estimate
  cfg.gap_alpha = 1.0;             // estimate = newest gap
  cfg.mttf_hysteresis = 0.10;
  cfg.mttf_min = 0.1;
  cfg.mttf_max = 1.0e9;
  cfg.min_interval_min = 0.001;
  cfg.max_interval_min = 1.0e9;
  cfg.episode_merge_ms = 1;
  cfg.directive_confidence = 0.5;
  cfg.min_lead_ms = 1000;
  cfg.directive_spacing_ms = 10000;
  return cfg;
}

TEST(CheckpointAdvisor, HysteresisPublishesOnlyRealMoves) {
  advisor::CheckpointAdvisor adv(unit_config(), 4);
  constexpr std::int64_t kMinute = 60'000;
  std::int64_t t_ms = 0;  // trace time
  // Five alarms at a steady 1-minute gap: the first estimate publishes,
  // identical re-estimates sit inside the 10% hysteresis band.
  for (int i = 0; i < 5; ++i) {
    adv.on_prediction(mk(t_ms, 0, 0.0, 0));
    t_ms += kMinute;
  }
  EXPECT_EQ(adv.schedule().updates.size(), 1u);
  // A 10x gap is far outside the band: second update.
  t_ms += 9 * kMinute;
  adv.on_prediction(mk(t_ms, 0, 0.0, 0));
  const auto sched = adv.schedule();
  ASSERT_EQ(sched.updates.size(), 2u);
  EXPECT_NEAR(sched.updates[1].est_mttf_min, 10.0, 1e-9);
}

TEST(CheckpointAdvisor, DirectiveRateLimitAndSkewedDuplicates) {
  advisor::CheckpointAdvisor adv(unit_config(), 4);
  std::int64_t t_ms = 5000;  // trace time
  adv.on_prediction(mk(t_ms, 0, 0.9, 5000));  // directive
  t_ms += 5000;
  adv.on_prediction(mk(t_ms, 0, 0.9, 5000));  // inside window
  // Skewed backwards past the first directive: still "inside" the window
  // (a directive from the past is a duplicate, not a new incident).
  t_ms -= 8000;
  adv.on_prediction(mk(t_ms, 0, 0.9, 5000));
  // Low confidence / short lead never enter the limiter at all.
  adv.on_prediction(mk(t_ms, 0, 0.2, 5000));
  adv.on_prediction(mk(t_ms, 0, 0.9, 10));
  t_ms += 18000;
  adv.on_prediction(mk(t_ms, 0, 0.9, 5000));  // window expired
  const auto sched = adv.schedule();
  EXPECT_EQ(sched.directives.size(), 2u);
  EXPECT_EQ(sched.suppressed, 2u);
  // Different partition, same instant: independent limiter.
  adv.on_prediction(mk(t_ms, 5, 0.9, 5000));
  EXPECT_EQ(adv.schedule().directives.size(), 3u);
}

TEST(CheckpointAdvisor, EpisodeMergeFoldsChainRefires) {
  auto cfg = unit_config();
  cfg.episode_merge_ms = 300000;
  advisor::CheckpointAdvisor adv(cfg, 4);
  // Re-fires 1s apart are one episode; the 400s gap closes it.
  adv.on_prediction(mk(0, 0, 0.0, 0));
  adv.on_prediction(mk(1000, 0, 0.0, 0));
  adv.on_prediction(mk(2000, 0, 0.0, 0));
  auto sched = adv.schedule();
  ASSERT_EQ(sched.partitions.size(), 1u);
  EXPECT_EQ(sched.partitions[0].episodes, 0u);
  EXPECT_EQ(sched.partitions[0].alarms, 3u);
  adv.on_prediction(mk(402000, 0, 0.0, 0));
  EXPECT_EQ(adv.schedule().partitions[0].episodes, 1u);
}

TEST(CheckpointAdvisor, SystemScopeRidesReservedPartition) {
  advisor::CheckpointAdvisor adv(unit_config(), 4);
  EXPECT_EQ(adv.partition_of(-1), -1);
  EXPECT_EQ(adv.partition_of(3), 0);
  EXPECT_EQ(adv.partition_of(5), 1);
  adv.on_prediction(mk(1000, -1, 0.0, 0));  // system scope (no nodes)
  adv.on_prediction(mk(2000, 5, 0.0, 0));
  const auto sched = adv.schedule();
  ASSERT_EQ(sched.partitions.size(), 2u);
  EXPECT_EQ(sched.partitions[0].partition, -1);
  EXPECT_EQ(sched.partitions[1].partition, 1);
}

TEST(CheckpointAdvisor, ScoreConsumesEachFaultOnce) {
  advisor::CheckpointAdvisor adv(unit_config(), 4);
  const std::int64_t kTrainEnd = 100000;
  // One training-window directive (stays unscored), two eval directives
  // on partition 0 sharing one fault, one on partition 1 with none.
  adv.on_prediction(mk(50000, 0, 0.9, 5000));
  adv.on_prediction(mk(150000, 0, 0.9, 5000));
  adv.on_prediction(mk(165000, 0, 0.9, 5000));
  adv.on_prediction(mk(150000, 5, 0.9, 5000));
  std::vector<simlog::GroundTruthFault> faults(1);
  faults[0].initiating_node = 1;  // partition 0
  faults[0].fail_time_ms = 160000;
  adv.score(faults, kTrainEnd);
  const auto sched = adv.schedule();
  EXPECT_EQ(sched.hits, 1u);
  EXPECT_EQ(sched.misses, 2u);
  int unscored = 0;
  for (const auto& d : sched.directives) unscored += !d.scored;
  EXPECT_EQ(unscored, 1);
  // Re-scoring judges nothing twice.
  adv.score(faults, kTrainEnd);
  EXPECT_EQ(adv.schedule().hits, 1u);
  EXPECT_EQ(adv.schedule().misses, 2u);
}

TEST(IntervalForCost, YoungWithCreditedRecallAndClamps) {
  advisor::AdvisorConfig cfg;
  cfg.interval_recall = 0.0;
  cfg.min_interval_min = 5.0;
  cfg.max_interval_min = 100.0;
  // Pure Young at zero credited recall: sqrt(2 * 1 * 800) ~= 40.
  EXPECT_NEAR(advisor::interval_for_cost(cfg, 1.0, 800.0), 40.0, 1e-9);
  // Credited recall stretches by 1/sqrt(1-r).
  cfg.interval_recall = 0.5;
  EXPECT_NEAR(advisor::interval_for_cost(cfg, 1.0, 800.0),
              40.0 * std::sqrt(2.0), 1e-9);
  cfg.interval_recall = 0.0;
  EXPECT_EQ(advisor::interval_for_cost(cfg, 1.0, 1.0e9), 100.0);  // clamp hi
  EXPECT_EQ(advisor::interval_for_cost(cfg, 0.0001, 1.0), 5.0);   // clamp lo
}

// ---------------------------------------------------- service-level ------

struct Campaign {
  simlog::Trace trace;
  std::int64_t train_end = 0;
  core::OfflineModel model;
};

const Campaign& campaign() {
  static const Campaign c = [] {
    Campaign c;
    auto sc = simlog::make_bluegene_scenario(2012, 8.0, 40);
    c.trace = sc.generator.generate(sc.config);
    c.train_end =
        c.trace.t_begin_ms + static_cast<std::int64_t>(4.0 * 86'400'000.0);
    core::PipelineConfig cfg;
    c.model = core::train_offline(c.trace, c.train_end, core::Method::Hybrid,
                                  cfg);
    return c;
  }();
  return c;
}

advisor::CheckpointSchedule run_service(std::size_t shards,
                                        const faultinject::FaultPlan* plan,
                                        serve::MetricsSnapshot* out_metrics,
                                        std::uint64_t* out_dropped) {
  const Campaign& c = campaign();
  advisor::AdvisorServiceConfig acfg;
  acfg.serve.shards = shards;
  acfg.serve.engine.use_location = true;
  acfg.serve.watchdog_interval_ms = 20;
  acfg.serve.watchdog_deadline_ms = 250;
  if (plan) acfg.serve.faults = plan;
  advisor::AdvisorService svc(c.trace.topology, c.model, acfg);
  serve::ReplayOptions ro;
  ro.max_retries = 3;
  // Both arms lvalues: a `FaultPlan{}` arm would make the conditional a
  // temporary copy that dies before the injector (which keeps a pointer)
  // reads it.
  const faultinject::FaultPlan no_faults;
  faultinject::FaultInjector injector(plan ? *plan : no_faults);
  serve::TraceReplayer(c.trace, ro)
      .replay_into(svc.service(), plan ? &injector : nullptr);
  svc.finish(c.trace.t_end_ms);
  svc.advisor().score(c.trace.faults, c.train_end);
  if (out_metrics) *out_metrics = svc.service().metrics();
  if (out_dropped) *out_dropped = svc.dropped();
  return svc.schedule();
}

// The routing refactor's acceptance property at this layer: the schedule —
// text and digest — is byte-identical however the stream is sharded. The
// hash router maps every midplane wholly to one shard in arrival order, so
// the merged prediction stream (and everything derived from it) cannot
// depend on the shard count.
TEST(AdvisorService, ScheduleByteIdenticalAcrossShardCounts) {
  std::uint64_t dropped1 = 0;
  const auto s1 = run_service(1, nullptr, nullptr, &dropped1);
  EXPECT_EQ(dropped1, 0u);
  EXPECT_GT(s1.events, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(shards);
    std::uint64_t dropped = 0;
    const auto sn = run_service(shards, nullptr, nullptr, &dropped);
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(s1.to_string(), sn.to_string());
    EXPECT_EQ(s1.digest(), sn.digest());
  }
}

TEST(AdvisorService, ChaosConservesDirectives) {
  const auto plan =
      faultinject::FaultPlan::parse("failworker=0@50,stall=1@100:200", 7);
  serve::MetricsSnapshot m;
  std::uint64_t dropped = 0;
  const auto sched = run_service(4, &plan, &m, &dropped);
  // Every prediction either reached the advisor or was counted dropped...
  EXPECT_TRUE(m.records_conserved());
  EXPECT_EQ(m.advisor_events + m.advisor_dropped, m.predictions);
  EXPECT_EQ(m.advisor_events, sched.events);
  EXPECT_EQ(m.advisor_dropped, dropped);
  // ...and every directive decision is visible exactly once: issued ones
  // in the schedule, rate-limited ones in the suppressed count.
  EXPECT_EQ(m.directives, sched.directives.size());
  EXPECT_EQ(m.directives_suppressed, sched.suppressed);
}

// Digest equality must also survive serve-side chaos: worker kills and
// stalls reshuffle processing in time but lose nothing, so the schedule a
// 1-shard chaotic run computes equals the 4-shard chaotic one.
TEST(AdvisorService, ChaosScheduleIdenticalAcrossShardCounts) {
  const auto plan =
      faultinject::FaultPlan::parse("failworker=0@50,stall=1@100:200", 7);
  const auto s1 = run_service(1, &plan, nullptr, nullptr);
  const auto s4 = run_service(4, &plan, nullptr, nullptr);
  EXPECT_GT(s1.events, 0u);
  EXPECT_EQ(s1.to_string(), s4.to_string());
  EXPECT_EQ(s1.digest(), s4.digest());
}

}  // namespace
