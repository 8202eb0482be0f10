// Serving subsystem: topology-sharded engine equivalence with the single
// engine (the determinism guarantee), run-to-run determinism under real
// threads, shard routing, the end-to-end PredictionService under
// multi-producer load, and the trace replayer's pacing and windowing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "elsa/pipeline.hpp"
#include "faultinject/injector.hpp"
#include "faultinject/plan.hpp"
#include "serve/replayer.hpp"
#include "serve/service.hpp"
#include "serve/sharded_engine.hpp"
#include "simlog/scenario.hpp"

namespace {

using namespace elsa;

// ---------------------------------------------------------------------------
// Shared fixture: the default BG/L-like campaign, trained once, with the
// test-period stream pre-classified against the frozen model so every run
// (single or sharded) sees the identical (record, template) sequence.

struct Campaign {
  simlog::Trace trace;
  std::int64_t train_end = 0;
  core::OfflineModel model;
  std::vector<std::pair<const simlog::LogRecord*, std::uint32_t>> stream;
  core::EngineConfig engine;
};

const Campaign& campaign() {
  static const Campaign c = [] {
    Campaign c;
    auto sc = simlog::make_bluegene_scenario(2012, 8.0, 40);
    c.trace = sc.generator.generate(sc.config);
    c.train_end = c.trace.t_begin_ms +
                  static_cast<std::int64_t>(4.0 * 86'400'000.0);
    core::PipelineConfig cfg;
    c.model = core::train_offline(c.trace, c.train_end, core::Method::Hybrid,
                                  cfg);
    const auto unknown = static_cast<std::uint32_t>(c.model.helo.size());
    for (const auto& rec : c.trace.records) {
      if (rec.time_ms < c.train_end) continue;
      auto tid = c.model.helo.classify_const(rec.message);
      if (tid == helo::TemplateMiner::kNoTemplate) tid = unknown;
      c.stream.emplace_back(&rec, tid);
    }
    c.engine = cfg.engine;
    c.engine.dt_ms = cfg.dt_ms;
    c.engine.tolerance = cfg.grite.tolerance;
    // Serving semantics: latency is measured, not simulated.
    c.engine.cost = core::AnalysisCostModel{0.0, 0.0, 0.0};
    return c;
  }();
  return c;
}

const std::vector<core::Prediction>& run_single() {
  static const std::vector<core::Prediction> cached = [] {
    const Campaign& c = campaign();
    core::OnlineEngine eng(c.trace.topology, c.model.chains, c.model.profiles,
                           c.engine);
    for (const auto& [rec, tid] : c.stream) eng.feed(*rec, tid);
    eng.finish(c.trace.t_end_ms);
    auto preds = eng.predictions();
    // The sharded merge orders by (issue, chain, tmpl, ...); apply the same
    // order to the single run for a field-by-field comparison.
    std::stable_sort(preds.begin(), preds.end(),
                     [](const core::Prediction& a, const core::Prediction& b) {
                       return std::tie(a.issue_time_ms, a.chain_id, a.tmpl) <
                              std::tie(b.issue_time_ms, b.chain_id, b.tmpl);
                     });
    return preds;
  }();
  return cached;
}

std::pair<std::vector<core::Prediction>, core::EngineStats> run_sharded(
    std::size_t shards) {
  const Campaign& c = campaign();
  serve::ServiceConfig cfg;
  cfg.shards = shards;
  cfg.engine = c.engine;
  serve::ShardedEngine eng(c.trace.topology, c.model.chains, c.model.profiles,
                           cfg);
  for (const auto& [rec, tid] : c.stream) eng.feed(*rec, tid);
  eng.finish(c.trace.t_end_ms);
  return {eng.predictions(), eng.stats()};
}

void expect_identical(const std::vector<core::Prediction>& a,
                      const std::vector<core::Prediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].trigger_time_ms, b[i].trigger_time_ms);
    EXPECT_EQ(a[i].issue_time_ms, b[i].issue_time_ms);
    EXPECT_EQ(a[i].predicted_time_ms, b[i].predicted_time_ms);
    EXPECT_EQ(a[i].tmpl, b[i].tmpl);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].scope, b[i].scope);
    EXPECT_EQ(a[i].chain_id, b[i].chain_id);
    EXPECT_DOUBLE_EQ(a[i].confidence, b[i].confidence);
    EXPECT_EQ(a[i].lead_ms, b[i].lead_ms);
  }
}

// ---------------------------------------------------------------------------

// The acceptance property: the 4-shard merged prediction stream is
// identical, field for field, to the single-engine run on the default
// BG/L-like scenario.
TEST(ShardedEngine, FourShardsIdenticalToSingleEngine) {
  const auto single = run_single();
  ASSERT_FALSE(single.empty()) << "campaign produced no predictions";
  const auto [sharded, stats] = run_sharded(4);
  expect_identical(single, sharded);
  EXPECT_EQ(stats.records, campaign().stream.size());
}

TEST(ShardedEngine, OtherShardCountsAgreeToo) {
  const auto single = run_single();
  for (const std::size_t n : {1u, 2u, 8u}) {
    SCOPED_TRACE(n);
    const auto [sharded, stats] = run_sharded(n);
    expect_identical(single, sharded);
  }
}

// Real threads, two runs, byte-identical output: per-shard FIFO plus the
// total merge order make scheduling invisible. 3 shards exercises uneven
// midplane distribution.
TEST(ShardedEngine, DeterministicAcrossRuns) {
  const auto [first, s1] = run_sharded(3);
  const auto [second, s2] = run_sharded(3);
  expect_identical(first, second);
  EXPECT_EQ(s1.records, s2.records);
  EXPECT_EQ(s1.buckets, s2.buckets);
  EXPECT_EQ(s1.outlier_onsets, s2.outlier_onsets);
  EXPECT_EQ(s1.duplicates_suppressed, s2.duplicates_suppressed);
  EXPECT_EQ(s1.chains_used, s2.chains_used);
}

TEST(ShardedEngine, RoutesByMidplane) {
  const auto topo = topo::Topology::bluegene(2, 2, 4, 8);  // 32 per midplane
  serve::ServiceConfig cfg;
  cfg.shards = 3;
  serve::ShardedEngine eng(topo, {}, {}, cfg);
  // System records (partition -1) hash like any other key — the mapping is
  // still a pure function, just not pinned to shard 0.
  EXPECT_EQ(eng.shard_of(-1),
            serve::ShardRouter::spread(
                serve::ShardRouter::mix(static_cast<std::uint64_t>(-1)), 3));
  // Every node of a midplane routes with its midplane, and the mapping is
  // the documented stable hash of the midplane index — a pure function, so
  // it cannot drift between runs, threads or processes.
  for (std::int32_t mp = 0; mp < 4; ++mp) {
    const auto expect = serve::ShardRouter::spread(
        serve::ShardRouter::mix(static_cast<std::uint64_t>(mp)), 3);
    SCOPED_TRACE(mp);
    EXPECT_EQ(eng.router().partition_of(mp * 32), mp);
    EXPECT_EQ(eng.shard_of(mp * 32), expect);       // first node of midplane
    EXPECT_EQ(eng.shard_of(mp * 32 + 31), expect);  // last node, same shard
  }
  eng.finish(0);
}

// The router hashes the partition key instead of taking it modulo the
// shard count: structured (rack-major) midplane indices must not alias
// into hot shards. With many midplanes, every shard gets work.
TEST(ShardRouter, HashSpreadsStructuredKeys) {
  const serve::ShardRouter router(/*nodes_per_midplane=*/1, /*shards=*/8);
  std::vector<int> hits(8, 0);
  for (std::int32_t part = 0; part < 4096; ++part)
    ++hits[router.shard_of(part)];
  for (std::size_t s = 0; s < hits.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_GT(hits[s], 0);
    // Near-uniform: within ±50% of the 512 expected per shard.
    EXPECT_GT(hits[s], 256);
    EXPECT_LT(hits[s], 768);
  }
  // Strided keys (every 8th midplane — the aliasing worst case for
  // `part % shards`) still touch every shard.
  std::fill(hits.begin(), hits.end(), 0);
  for (std::int32_t part = 0; part < 4096; part += 8)
    ++hits[router.shard_of(part)];
  for (std::size_t s = 0; s < hits.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_GT(hits[s], 0);
  }
}

// A real machine has only a handful of midplanes (the BG/L-like bench
// topology has 8 plus the system partition), so the router must also
// spread *dense, few* keys: an avalanche-style hash draws shards
// independently and routinely piles most of 9 keys onto one shard, which
// re-inverts the scaling curve. The Fibonacci walk is low-discrepancy, so
// 8 dense keys over 4 shards land at most 3 deep and miss no shard.
TEST(ShardRouter, DenseFewKeysStayBalanced) {
  const serve::ShardRouter router(/*nodes_per_midplane=*/1, /*shards=*/4);
  std::vector<int> hits(4, 0);
  for (std::int32_t part = 0; part < 8; ++part) ++hits[router.shard_of(part)];
  for (std::size_t s = 0; s < hits.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_GT(hits[s], 0);
    EXPECT_LE(hits[s], 3);
  }
}

// ---------------------------------------------------------------------------
// PredictionService end to end.

// Four producer threads hammer the bounded ingest ring with blocking
// submits; every record must come out of a shard engine exactly once.
TEST(PredictionService, MultiProducerNoLoss) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  const auto topo = topo::Topology::bluegene(2, 2, 4, 8);
  core::OfflineModel model;  // empty frozen model: everything is "unknown"
  serve::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.ingest_capacity = 256;  // small: force backpressure
  serve::PredictionService service(topo, model, cfg);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&service, &topo, p] {
      simlog::LogRecord rec;
      rec.message = "stress record";
      for (int i = 0; i < kPerProducer; ++i) {
        rec.time_ms = static_cast<std::int64_t>(i) * 1'000 + p;
        rec.node_id = (i * kProducers + p) % topo.total_nodes();
        ASSERT_TRUE(service.submit(rec));
      }
    });
  for (auto& t : producers) t.join();
  service.finish(kPerProducer * 1'000);

  const auto m = service.metrics();
  EXPECT_EQ(m.records_in, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(m.records_out, m.records_in);
  EXPECT_EQ(m.shed, 0u);
  EXPECT_TRUE(m.records_conserved());
  EXPECT_EQ(service.engine_stats().records,
            static_cast<std::size_t>(kProducers) * kPerProducer);
  // Interleaved producers necessarily deliver some records out of order;
  // the engines must have absorbed them (clamped, counted), not lost them.
  EXPECT_EQ(m.out_of_order, service.engine_stats().out_of_order);

  // The service is closed now.
  simlog::LogRecord late;
  EXPECT_FALSE(service.submit(late));
  EXPECT_EQ(service.submit_result(late, false), serve::SubmitResult::kClosed);
  service.finish(0);  // idempotent
}

// The full service path (classify -> route -> per-shard ring -> shard
// worker) reproduces the single-engine predictions on the real campaign.
TEST(PredictionService, EndToEndMatchesSingleEngine) {
  const Campaign& c = campaign();
  serve::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.engine = c.engine;
  serve::PredictionService service(c.trace.topology, c.model, cfg);

  serve::ReplayOptions ro;  // as fast as possible
  ro.from_ms = c.train_end;
  const std::size_t accepted =
      serve::TraceReplayer(c.trace, ro).replay_into(service);
  service.finish(c.trace.t_end_ms);

  EXPECT_EQ(accepted, c.stream.size());
  expect_identical(run_single(), service.predictions());

  const auto m = service.metrics();
  EXPECT_EQ(m.records_in, c.stream.size());
  EXPECT_EQ(m.records_out, c.stream.size());
  EXPECT_EQ(m.predictions, service.predictions().size());
  EXPECT_GT(m.records_per_sec, 0.0);

  // The streaming alarm feed saw the same alarms: equal as multisets under
  // the merge's total order (arrival order differs across shards).
  std::vector<core::Prediction> streamed;
  service.poll_alarms(streamed);
  std::sort(streamed.begin(), streamed.end(), serve::prediction_less);
  expect_identical(service.predictions(), streamed);
}

// ---------------------------------------------------------------------------
// Graceful degradation under injected faults. The chaos invariant in every
// scenario: the service finishes, and every submit attempt is accounted —
// ingested == processed + quarantined + shed.

simlog::LogRecord synth_record(int i, std::int32_t nodes) {
  simlog::LogRecord rec;
  rec.time_ms = 1'000 + static_cast<std::int64_t>(i) * 50;
  rec.node_id = static_cast<std::int32_t>(i) % nodes;
  rec.message = "chaos record " + std::to_string(i % 5);
  return rec;
}

TEST(PredictionService, ValidatorQuarantinesMalformed) {
  const auto topo = topo::Topology::cluster(8);
  core::OfflineModel model;
  serve::ServiceConfig cfg;
  cfg.shards = 2;
  serve::PredictionService service(topo, model, cfg);

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(service.submit(synth_record(i, 8)));
  simlog::LogRecord bad;
  bad.node_id = 999;  // outside the 8-node topology
  EXPECT_EQ(service.submit_result(bad, false),
            serve::SubmitResult::kQuarantined);
  bad.node_id = -2;  // below the system-scope sentinel
  EXPECT_EQ(service.submit_result(bad, true), serve::SubmitResult::kQuarantined);
  bad.node_id = 0;
  bad.time_ms = -5;
  EXPECT_EQ(service.submit_result(bad, true), serve::SubmitResult::kQuarantined);
  service.finish(10'000);

  const auto m = service.metrics();
  EXPECT_EQ(m.ingested, 23u);
  EXPECT_EQ(m.quarantined, 3u);
  EXPECT_EQ(m.records_out, 20u);
  EXPECT_TRUE(m.records_conserved());
  // The engines never saw the malformed records...
  EXPECT_EQ(service.engine_stats().records, 20u);
  // ...but the diagnostic sample kept them.
  const auto sample = service.quarantined_sample();
  ASSERT_EQ(sample.size(), 3u);
  EXPECT_EQ(sample[0].node_id, 999);
  EXPECT_EQ(sample[2].time_ms, -5);
}

// Conservation holds under every record-path fault kind, one at a time and
// all together.
TEST(PredictionService, ConservationUnderEachFaultKind) {
  for (const char* plan_text :
       {"drop=0.2", "dup=0.2", "corrupt=0.2", "reorder=0.5:8",
        "skew=0.5:60000", "all"}) {
    SCOPED_TRACE(plan_text);
    const auto plan = faultinject::FaultPlan::parse(plan_text, 2012);
    faultinject::FaultInjector injector(plan);

    const auto topo = topo::Topology::cluster(8);
    core::OfflineModel model;
    serve::ServiceConfig cfg;
    cfg.shards = 2;
    cfg.faults = &plan;
    serve::PredictionService service(topo, model, cfg);

    std::vector<simlog::LogRecord> delivery;
    for (int i = 0; i < 2'000; ++i) {
      delivery.clear();
      injector.ingest(synth_record(i, 8), delivery);
      for (const auto& rec : delivery) service.submit(rec);
    }
    delivery.clear();
    injector.flush(delivery);
    for (const auto& rec : delivery) service.submit(rec);
    service.finish(1'000'000);

    const auto& is = injector.stats();
    EXPECT_EQ(is.seen + is.duplicated, is.delivered + is.dropped);
    const auto m = service.metrics();
    EXPECT_EQ(m.ingested, is.delivered);
    EXPECT_TRUE(m.records_conserved())
        << "ingested=" << m.ingested << " out=" << m.records_out
        << " quarantined=" << m.quarantined << " shed=" << m.shed;
    EXPECT_EQ(m.records_out, service.engine_stats().records);
  }
}

// The acceptance property for the whole layer: with an *empty* fault plan
// wired in everywhere (injector, serve-side hooks, watchdog running), the
// output is byte-identical to the plain single-engine run.
TEST(PredictionService, EmptyPlanIsByteIdentical) {
  const Campaign& c = campaign();
  const faultinject::FaultPlan plan;  // empty
  faultinject::FaultInjector injector(plan);

  serve::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.engine = c.engine;
  cfg.faults = &plan;
  serve::PredictionService service(c.trace.topology, c.model, cfg);

  serve::ReplayOptions ro;
  ro.from_ms = c.train_end;
  const std::size_t accepted =
      serve::TraceReplayer(c.trace, ro).replay_into(service, &injector);
  service.finish(c.trace.t_end_ms);

  EXPECT_EQ(accepted, c.stream.size());
  expect_identical(run_single(), service.predictions());
  const auto m = service.metrics();
  EXPECT_EQ(m.quarantined, 0u);
  EXPECT_EQ(m.shed, 0u);
  EXPECT_TRUE(m.records_conserved());
}

// Serve-side faults that do not lose records (a worker kill recovered by
// the watchdog, a transient stall) must leave the merged output
// byte-identical: the lock-free rings, the hash router and the restart
// machinery may reshuffle *when* records are processed, never *what* the
// merged stream contains.
TEST(PredictionService, ServeSideFaultsStayByteIdentical) {
  const Campaign& c = campaign();
  const auto plan =
      faultinject::FaultPlan::parse("failworker=0@500,stall=1@300:150", 7);

  serve::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.engine = c.engine;
  cfg.faults = &plan;
  cfg.watchdog_interval_ms = 10;  // revive the killed worker promptly
  serve::PredictionService service(c.trace.topology, c.model, cfg);

  serve::ReplayOptions ro;
  ro.from_ms = c.train_end;
  const std::size_t accepted =
      serve::TraceReplayer(c.trace, ro).replay_into(service);
  service.finish(c.trace.t_end_ms);

  EXPECT_EQ(accepted, c.stream.size());
  expect_identical(run_single(), service.predictions());
  const auto m = service.metrics();
  EXPECT_EQ(m.records_out, c.stream.size());
  EXPECT_EQ(m.shed, 0u);
  EXPECT_TRUE(m.records_conserved());
}

// Drop-oldest backpressure: wedge the (single) shard with an injected
// stall so the ingest ring fills, and verify overflow evicts instead of
// blocking and the evictions are accounted as shed.
TEST(PredictionService, DropOldestEvictsUnderOverflow) {
  const auto plan = faultinject::FaultPlan::parse("stall=0@1:400", 7);
  const auto topo = topo::Topology::cluster(4);
  core::OfflineModel model;
  serve::ServiceConfig cfg;
  cfg.shards = 1;
  cfg.ingest_capacity = 8;
  cfg.batch = 4;
  cfg.overflow = serve::OverflowPolicy::kDropOldest;
  cfg.faults = &plan;
  serve::PredictionService service(topo, model, cfg);

  // 500 immediate submits while the worker sleeps 400 ms after record 1:
  // the single shard's 8-record ring fills long before the stall ends, so
  // later submits must displace older queued records.
  for (int i = 0; i < 500; ++i) {
    const auto r = service.submit_result(synth_record(i, 4), true);
    ASSERT_NE(r, serve::SubmitResult::kClosed);
    ASSERT_NE(r, serve::SubmitResult::kShed);  // drop-oldest never refuses
  }
  service.finish(1'000'000);

  const auto m = service.metrics();
  EXPECT_EQ(m.ingested, 500u);
  EXPECT_GT(m.shed, 0u);  // evictions happened and were counted
  EXPECT_LT(m.records_out, 500u);
  EXPECT_TRUE(m.records_conserved());
}

// Shed policy with the replayer's bounded retry loop: overflow refuses
// records, the producer retries with backoff, and however the race falls
// the accounting still closes.
TEST(PredictionService, ShedPolicyRetriesAndConserves) {
  const auto plan = faultinject::FaultPlan::parse("stall=0@1:300", 7);
  simlog::Trace tr;
  tr.topology = topo::Topology::cluster(4);
  for (int i = 0; i < 400; ++i) tr.records.push_back(synth_record(i, 4));
  tr.t_begin_ms = 0;
  tr.t_end_ms = tr.records.back().time_ms + 1;

  core::OfflineModel model;
  serve::ServiceConfig cfg;
  cfg.shards = 1;
  cfg.ingest_capacity = 4;  // floor lifts this to one 8-record ring
  cfg.batch = 4;
  cfg.overflow = serve::OverflowPolicy::kShed;
  cfg.faults = &plan;
  serve::PredictionService service(tr.topology, model, cfg);

  serve::ReplayOptions ro;
  ro.max_retries = 2;
  const std::size_t accepted =
      serve::TraceReplayer(tr, ro).replay_into(service);
  service.finish(1'000'000);

  const auto m = service.metrics();
  EXPECT_GT(m.shed, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_EQ(m.records_out, accepted);
  EXPECT_TRUE(m.records_conserved());
}

// The watchdog notices a stalled shard (one trip per episode) and clears
// degraded mode once the shard recovers; no records are lost.
TEST(ShardedEngine, WatchdogTripsOnStallThenRecovers) {
  const auto plan = faultinject::FaultPlan::parse("stall=0@10:600", 7);
  const auto topo = topo::Topology::cluster(4);
  serve::ServeMetrics metrics;
  serve::ServiceConfig cfg;
  cfg.shards = 1;
  cfg.batch = 1;
  cfg.watchdog_interval_ms = 20;
  cfg.watchdog_deadline_ms = 100;
  cfg.faults = &plan;
  serve::ShardedEngine eng(topo, {}, {}, cfg, {}, &metrics);

  simlog::LogRecord rec;
  for (int i = 0; i < 50; ++i) {
    rec.time_ms = i * 100;
    rec.node_id = i % 4;
    eng.feed(rec, 0);
  }
  // finish() stops the watchdog, so let it observe the stall first: the
  // trip lands ~deadline after the worker wedges (~120 ms into the 600 ms
  // stall).
  for (int spins = 0; metrics.snapshot().watchdog_trips == 0 && spins < 400;
       ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(metrics.snapshot().watchdog_trips, 1u);
  eng.finish(10'000);

  EXPECT_EQ(eng.stats().records, 50u);
  // stop_watchdog cleared the flag on the way out of finish().
  EXPECT_FALSE(metrics.degraded());
}

// A worker killed by kFailWorker is revived by the watchdog; the parked
// batch tail and everything still queued are processed exactly once.
TEST(ShardedEngine, FailedWorkerRestartedNothingLost) {
  const auto plan = faultinject::FaultPlan::parse("failworker=0@50", 7);
  const auto topo = topo::Topology::cluster(4);
  serve::ServeMetrics metrics;
  serve::ServiceConfig cfg;
  cfg.shards = 1;
  cfg.batch = 8;
  cfg.watchdog_interval_ms = 10;
  cfg.watchdog_deadline_ms = 200;
  cfg.faults = &plan;
  serve::ShardedEngine eng(topo, {}, {}, cfg, {}, &metrics);

  simlog::LogRecord rec;
  for (int i = 0; i < 300; ++i) {
    rec.time_ms = i * 100;
    rec.node_id = i % 4;
    eng.feed(rec, 0);
  }
  // Wait for the kill + restart cycle (records keep flowing after it).
  for (int spins = 0; eng.worker_restarts() == 0 && spins < 500; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(eng.worker_restarts(), 1u);
  eng.finish(100'000);

  EXPECT_EQ(eng.stats().records, 300u);  // nothing lost, nothing doubled
  EXPECT_GE(metrics.snapshot().watchdog_trips, 1u);
}

// ---------------------------------------------------------------------------
// Replayer.

simlog::Trace tiny_trace() {
  simlog::Trace tr;
  tr.topology = topo::Topology::cluster(4);
  for (int i = 0; i < 10; ++i) {
    simlog::LogRecord rec;
    rec.time_ms = i * 100;
    rec.node_id = i % 4;
    tr.records.push_back(rec);
  }
  tr.t_begin_ms = 0;
  tr.t_end_ms = 1'000;
  return tr;
}

TEST(TraceReplayer, DeliversWindowInOrder) {
  const auto tr = tiny_trace();
  serve::ReplayOptions ro;
  ro.from_ms = 200;
  ro.until_ms = 700;
  std::vector<std::int64_t> seen;
  const std::size_t n = serve::TraceReplayer(tr, ro).replay(
      [&](const simlog::LogRecord& rec) {
        seen.push_back(rec.time_ms);
        return true;
      });
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{200, 300, 400, 500, 600}));
}

TEST(TraceReplayer, SinkAbortStopsReplay) {
  const auto tr = tiny_trace();
  std::size_t calls = 0;
  const std::size_t n = serve::TraceReplayer(tr).replay(
      [&](const simlog::LogRecord&) { return ++calls < 3; });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(n, 2u);  // the aborting record is not counted as delivered
}

TEST(TraceReplayer, PacedReplayTakesWallTime) {
  const auto tr = tiny_trace();  // spans 900 ms of trace time
  serve::ReplayOptions ro;
  ro.speedup = 10.0;  // -> at least 90 ms of wall time
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = serve::TraceReplayer(tr, ro).replay(
      [](const simlog::LogRecord&) { return true; });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(n, 10u);
  EXPECT_GE(ms, 85.0);
}

}  // namespace
