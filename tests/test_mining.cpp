// Mining suite: the incremental miner's determinism contracts (chunked
// fold ≡ single fold, state save/load mid-stream ≡ uninterrupted, bounded
// candidate memory), the RcuHub hand-off (epoch bookkeeping, retired-list
// reclamation, a thread stress for TSan), and the MinerService-level
// online ≡ batch property the `elsa mine --check` CI gate enforces —
// identical model and publish-stream digests across shard counts, clean
// and under serve-side chaos.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "elsa/model_io.hpp"
#include "faultinject/plan.hpp"
#include "mining/miner.hpp"
#include "mining/service.hpp"
#include "serve/model_handle.hpp"
#include "serve/replayer.hpp"
#include "simlog/scenario.hpp"

namespace {

using namespace elsa;
using serve::ClassifiedEvent;

constexpr std::uint8_t kInfo = 0;
constexpr std::uint8_t kFatal = 4;

ClassifiedEvent ev(std::int64_t t_ms, std::uint32_t tmpl, std::uint8_t sev,
                   std::int32_t node = 0) {
  return ClassifiedEvent{t_ms, node, tmpl, sev};
}

/// A deterministic a -> b -> f cascade repeated `reps` times, 10 s apart
/// items, cascades 10 min apart (outside the pairing window).
std::vector<ClassifiedEvent> cascade_stream(int reps) {
  std::vector<ClassifiedEvent> out;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = static_cast<std::int64_t>(i) * 600'000;
    out.push_back(ev(t0, 0, kInfo));
    out.push_back(ev(t0 + 10'000, 1, kInfo));
    out.push_back(ev(t0 + 30'000, 2, kFatal));
  }
  return out;
}

// ------------------------------------------------------ OnlineMiner -----

TEST(OnlineMiner, CanonicalOrderComparesAllFields) {
  EXPECT_TRUE(mining::canonical_less(ev(1, 0, 0), ev(2, 0, 0)));
  EXPECT_TRUE(mining::canonical_less(ev(1, 0, 0, 0), ev(1, 0, 0, 1)));
  EXPECT_TRUE(mining::canonical_less(ev(1, 0, 0), ev(1, 1, 0)));
  EXPECT_TRUE(mining::canonical_less(ev(1, 0, 0), ev(1, 0, 1)));
  EXPECT_FALSE(mining::canonical_less(ev(1, 0, 1), ev(1, 0, 1)));
}

TEST(OnlineMiner, MinesTheCascadeWithGriteConsistentDelays) {
  mining::OnlineMiner miner;
  for (const auto& e : cascade_stream(10)) miner.fold(e);
  const auto model = miner.build_model(nullptr);
  // (0,2) is subsumed by the delay-consistent 3-chain (0,1,2); (1,2)
  // survives as a bare pair. Emission order follows sorted pair keys.
  ASSERT_EQ(model.chains.size(), 2u);
  const auto& three = model.chains[0];
  ASSERT_EQ(three.items.size(), 3u);
  EXPECT_EQ(three.items[0].signal, 0u);
  EXPECT_EQ(three.items[1].signal, 1u);
  EXPECT_EQ(three.items[1].delay, 1);
  EXPECT_EQ(three.items[2].signal, 2u);
  EXPECT_EQ(three.items[2].delay, 3);
  EXPECT_EQ(three.support, 10);
  EXPECT_DOUBLE_EQ(three.confidence, 1.0);
  EXPECT_TRUE(three.predictive());
  const auto& two = model.chains[1];
  ASSERT_EQ(two.items.size(), 2u);
  EXPECT_EQ(two.items[0].signal, 1u);
  EXPECT_EQ(two.items[1].signal, 2u);
  EXPECT_EQ(two.items[1].delay, 2);
  // Profiles match the engine's on-demand synthesis exactly (Silent,
  // spike 0.5) so a hot swap cannot change detector behaviour.
  ASSERT_EQ(model.profiles.size(), 3u);
  for (const auto& p : model.profiles) {
    EXPECT_EQ(p.cls, sigkit::SignalClass::Silent);
    EXPECT_DOUBLE_EQ(p.spike_delta, 0.5);
  }
  EXPECT_EQ(model.tmpl_severity[2], simlog::Severity::Fatal);
}

TEST(OnlineMiner, BuildModelIsAPureFunctionOfState) {
  mining::OnlineMiner miner;
  for (const auto& e : cascade_stream(7)) miner.fold(e);
  const std::uint64_t d1 = core::model_digest(miner.build_model(nullptr));
  const std::uint64_t d2 = core::model_digest(miner.build_model(nullptr));
  EXPECT_EQ(d1, d2);
}

TEST(OnlineMiner, StateRoundTripMidStreamEqualsUninterrupted) {
  const auto stream = cascade_stream(20);
  mining::OnlineMiner straight;
  for (const auto& e : stream) straight.fold(e);

  // Fold half, save, reload into a FRESH miner, fold the rest.
  mining::OnlineMiner first_half;
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) first_half.fold(stream[i]);
  std::stringstream state;
  first_half.save_state(state);
  mining::OnlineMiner resumed;
  resumed.load_state(state);
  for (std::size_t i = half; i < stream.size(); ++i)
    resumed.fold(stream[i]);

  EXPECT_EQ(resumed.folded(), straight.folded());
  EXPECT_EQ(core::model_digest(resumed.build_model(nullptr)),
            core::model_digest(straight.build_model(nullptr)));
  // And the post-resume state itself is byte-equal, not just the model.
  std::stringstream a, b;
  straight.save_state(a);
  resumed.save_state(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(OnlineMiner, LoadStateRejectsMalformedInput) {
  mining::OnlineMiner miner;
  std::stringstream bad("not-a-miner-state 1\n");
  EXPECT_THROW(miner.load_state(bad), std::runtime_error);
}

/// The message load_state fails with on `text`; empty if it loads. A loader
/// that sizes an allocation from an unchecked count throws bad_alloc here
/// instead, which the test reports as an error.
std::string load_state_error(const std::string& text) {
  mining::OnlineMiner miner;
  std::stringstream is(text);
  try {
    miner.load_state(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

// A count the file does not back fails at its first missing row, naming
// its section, and never sizes anything (the pairs count is 10^12 because
// a hash table's bucket array takes only 8 bytes a row, so a loader that
// reserved it would fail outright rather than touch the pages). A row
// naming a template past the templates section is refused too: fold()
// sizes that table before it records an event, and build_model indexes by
// those ids.
TEST(OnlineMiner, LoadStateRejectsWhatTheFileDoesNotHold) {
  const std::string head = "elsa-miner-state 1\nfolded 1 first 0 last 0\n";
  const std::string one = head + "templates 1\nt 0 1 0 0 0 4 0\n";
  const std::pair<std::string, std::string> cases[] = {
      {head + "templates 4000000000\nend\n", "bad template row"},
      {one + "recent 4000000000\nend\n", "bad recent row"},
      {one + "recent 0\npairs 1000000000000\np 0 0 0 1\nend\n",
       "bad pair row"},
      {one + "recent 1\nr 0 1000\npairs 0\nend\n",
       "recent row names an unknown template"},
      // Antecedent 1000, then consequent 1000.
      {one + "recent 0\npairs 1\np 4294967296000 0 0 1\nend\n",
       "pair row names an unknown template"},
      {one + "recent 0\npairs 1\np 1000 0 0 1\nend\n",
       "pair row names an unknown template"}};
  for (const auto& [text, why] : cases)
    EXPECT_EQ(load_state_error(text), "OnlineMiner::load_state: " + why)
        << text;
  EXPECT_EQ(load_state_error(one + "recent 1\nr 0 0\npairs 1\np 0 0 0 1\n"
                                   "end\n"),
            "");
}

TEST(OnlineMiner, PairMemoryStaysBounded) {
  mining::MinerConfig cfg;
  cfg.max_pairs = 64;
  cfg.lookback = 16;
  mining::OnlineMiner miner(cfg);
  // 64 distinct templates in a rolling pattern: far more than 64 distinct
  // ordered pairs occur inside the window.
  for (int i = 0; i < 20'000; ++i)
    miner.fold(ev(static_cast<std::int64_t>(i) * 1000,
                  static_cast<std::uint32_t>(i % 64), kInfo));
  EXPECT_LE(miner.pairs(), cfg.max_pairs);
  EXPECT_EQ(miner.folded(), 20'000u);
}

TEST(OnlineMiner, EvictionIsDeterministic) {
  mining::MinerConfig cfg;
  cfg.max_pairs = 32;
  cfg.lookback = 8;
  const auto run = [&cfg] {
    mining::OnlineMiner m(cfg);
    for (int i = 0; i < 5'000; ++i)
      m.fold(ev(static_cast<std::int64_t>(i) * 500,
                static_cast<std::uint32_t>((i * 7) % 40),
                i % 97 == 0 ? kFatal : kInfo));
    std::stringstream s;
    m.save_state(s);
    return s.str();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------- RcuHub ------

TEST(RcuHub, PinSeesTheCurrentEpochAndValue) {
  serve::RcuHub<int> hub(std::make_unique<const int>(7));
  EXPECT_EQ(hub.epoch(), 0u);
  {
    const auto h = hub.pin(0);
    EXPECT_EQ(*h.get(), 7);
    EXPECT_EQ(h.epoch(), 0u);
  }
  EXPECT_EQ(hub.publish(std::make_unique<const int>(8)), 1u);
  const auto h = hub.pin(0);
  EXPECT_EQ(*h.get(), 8);
  EXPECT_EQ(h.epoch(), 1u);
  EXPECT_EQ(hub.swaps(), 1u);
}

TEST(RcuHub, RetiredModelWaitsForThePinnedReader) {
  serve::RcuHub<int> hub(std::make_unique<const int>(1));
  {
    const auto h = hub.pin(3);
    hub.publish(std::make_unique<const int>(2));
    // Slot 3 never went quiescent after the swap: the old value must
    // still be parked on the retired list — and still readable.
    EXPECT_EQ(hub.retired(), 1u);
    EXPECT_EQ(*h.get(), 1);
  }
  // Reader released; the next publish's collect() pass reclaims it.
  hub.publish(std::make_unique<const int>(3));
  EXPECT_LE(hub.retired(), 1u);
  const auto h = hub.pin(0);
  EXPECT_EQ(*h.get(), 3);
}

TEST(RcuHub, StressReadersNeverSeeAReclaimedValue) {
  // TSan target: concurrent pin/read/unpin against a publishing thread.
  // Payload values are strictly increasing; a reader observing a torn or
  // reclaimed object would trip TSan (use-after-free read) or the
  // monotonicity check below.
  constexpr int kReaders = 4;
  constexpr int kPublishes = 400;
  serve::RcuHub<int> hub(std::make_unique<const int>(0));
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&hub, &done, r] {
      int last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto h = hub.pin(static_cast<std::size_t>(r));
        const int v = *h.get();
        EXPECT_GE(v, last);
        last = v;
      }
    });
  }
  for (int i = 1; i <= kPublishes; ++i)
    hub.publish(std::make_unique<const int>(i));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  // All readers parked: the destructor's final collect reclaims the rest.
}

// ----------------------------------------------------- MinerService -----

struct BatchRef {
  simlog::Trace trace;
  mining::BatchMineResult batch;
  std::size_t events = 0;
};

BatchRef batch_reference(double days, std::size_t publish_every) {
  BatchRef ref;
  auto scenario = simlog::make_bluegene_scenario(99, days);
  ref.trace = scenario.generator.generate(scenario.config);
  helo::TemplateMiner classifier;
  std::vector<ClassifiedEvent> events;
  events.reserve(ref.trace.records.size());
  for (const auto& rec : ref.trace.records)
    events.push_back({rec.time_ms, rec.node_id,
                      classifier.classify(rec.message),
                      static_cast<std::uint8_t>(rec.severity)});
  std::stable_sort(events.begin(), events.end(), mining::canonical_less);
  ref.events = events.size();
  ref.batch =
      mining::batch_mine(events, mining::MinerConfig{}, publish_every,
                         classifier);
  return ref;
}

void expect_online_matches(const BatchRef& ref, std::size_t shards,
                           std::size_t publish_every,
                           const faultinject::FaultPlan* plan) {
  mining::MinerServiceConfig cfg;
  cfg.serve.shards = shards;
  cfg.publish_every = publish_every;
  if (plan != nullptr) {
    cfg.serve.faults = plan;
    cfg.serve.watchdog_interval_ms = 20;
    cfg.serve.watchdog_deadline_ms = 250;
  }
  mining::MinerService ms(ref.trace.topology, cfg);
  serve::TraceReplayer(ref.trace).replay_into(ms.service());
  ms.finish(ref.trace.t_end_ms);
  EXPECT_EQ(ms.folded(), ref.events) << shards << " shards";
  EXPECT_EQ(ms.final_digest(), ref.batch.model_digest) << shards << " shards";
  EXPECT_EQ(ms.publish_stream_digest(), ref.batch.publish_digest)
      << shards << " shards";
  EXPECT_EQ(ms.publishes(), ref.batch.publishes) << shards << " shards";
  const auto m = ms.service().metrics();
  EXPECT_EQ(m.miner_events, ref.events);
  EXPECT_EQ(m.model_publishes, ref.batch.publishes);
  if (publish_every != 0 && ref.batch.publishes > 0) {
    EXPECT_GT(m.model_swaps, 0u);
  }
}

TEST(MinerService, OnlineEqualsBatchAcrossShardCounts) {
  const auto ref = batch_reference(0.15, 256);
  expect_online_matches(ref, 1, 256, nullptr);
  expect_online_matches(ref, 2, 256, nullptr);
  expect_online_matches(ref, 3, 256, nullptr);
}

TEST(MinerService, OnlineEqualsBatchUnderServeSideChaos) {
  const auto ref = batch_reference(0.15, 256);
  // Stalls delay the stream and a worker kill parks a batch tail for the
  // watchdog successor — neither may lose or duplicate a tapped event.
  const auto plan =
      faultinject::FaultPlan::parse("stall=1@150:40,failworker=0@300", 7);
  expect_online_matches(ref, 3, 256, &plan);
}

TEST(MinerService, AbandonedDestructionDoesNotHang) {
  auto scenario = simlog::make_bluegene_scenario(5, 0.05);
  const auto trace = scenario.generator.generate(scenario.config);
  mining::MinerServiceConfig cfg;
  cfg.serve.shards = 2;
  cfg.publish_every = 128;
  mining::MinerService ms(trace.topology, cfg);
  serve::TraceReplayer(trace).replay_into(ms.service());
  // No finish(): the destructor must close the rings, retire the pump and
  // tear the service down without deadlock.
}

TEST(MinerService, FinalModelServesIdenticallyViaHubAndDirect) {
  const auto ref = batch_reference(0.15, 0);
  serve::ServiceConfig scfg;
  scfg.shards = 3;
  scfg.engine.use_location = false;
  scfg.engine.raw_event_matching = true;

  serve::ModelHub hub(std::make_unique<const core::ModelState>(
      core::ModelState::build({}, {})));
  hub.publish(std::make_unique<const core::ModelState>(core::ModelState::build(
      ref.batch.model.chains, ref.batch.model.profiles)));
  core::OfflineModel hollow = ref.batch.model;
  hollow.chains.clear();
  hollow.profiles.clear();

  serve::ServiceConfig acfg = scfg;
  acfg.hub = &hub;
  serve::PredictionService via_hub(ref.trace.topology, hollow, acfg);
  serve::TraceReplayer(ref.trace).replay_into(via_hub);
  via_hub.finish(ref.trace.t_end_ms);

  serve::PredictionService direct(ref.trace.topology, ref.batch.model, scfg);
  serve::TraceReplayer(ref.trace).replay_into(direct);
  direct.finish(ref.trace.t_end_ms);

  const auto& a = via_hub.predictions();
  const auto& b = direct.predictions();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trigger_time_ms, b[i].trigger_time_ms) << i;
    EXPECT_EQ(a[i].issue_time_ms, b[i].issue_time_ms) << i;
    EXPECT_EQ(a[i].predicted_time_ms, b[i].predicted_time_ms) << i;
    EXPECT_EQ(a[i].tmpl, b[i].tmpl) << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
    EXPECT_EQ(a[i].scope, b[i].scope) << i;
    EXPECT_EQ(a[i].chain_id, b[i].chain_id) << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << i;
    EXPECT_EQ(a[i].lead_ms, b[i].lead_ms) << i;
  }
  EXPECT_GT(via_hub.metrics().model_swaps, 0u);
}

}  // namespace
