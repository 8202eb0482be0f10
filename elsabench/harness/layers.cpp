#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "advisor/advisor.hpp"
#include "elsa/model_io.hpp"
#include "elsa/pipeline.hpp"
#include "helo/helo.hpp"
#include "serve/sharded_engine.hpp"
#include "serve/spsc_ring.hpp"

namespace elsabench {

using namespace elsa;

namespace {

/// Calls per span in the layer probes (for the fold probe it is also the
/// miner's publish cadence, so a build follows every span).
constexpr std::size_t kBatch = kPublishEvery;

volatile std::uint64_t g_sink = 0;

/// One back-to-back pair of clock reads, ns (median): the cost a per-call
/// timing adds, subtracted from per-call means.
double clock_cost_ns() {
  std::vector<std::int64_t> d(20'001);
  for (auto& x : d) {
    const std::int64_t a = now_ns();
    x = now_ns() - a;
  }
  return static_cast<double>(percentile(d, 0.5));
}

std::int32_t nodes_per_midplane(const topo::Topology& topo) {
  return std::max(1, topo.nodes_per_nodecard() * topo.nodecards_per_midplane());
}

struct HeloProbe {
  double const_ns = 0.0;
  double unknown_share = 0.0;
  double classify_ns = 0.0;
  /// Template id the serving path feeds the engine, per window record.
  std::vector<std::uint32_t> window_tmpl;
};

HeloProbe probe_helo(const Ready& r, Tracer& t) {
  const auto& recs = r.trace.records;
  const std::size_t w0 = r.window_begin, n = recs.size() - w0;
  const helo::TemplateMiner& frozen = r.model.helo;
  const auto unknown = static_cast<std::uint32_t>(
      std::max(frozen.size(), r.model.profiles.size()));
  HeloProbe out;
  out.window_tmpl.resize(n);
  std::size_t misses = 0;
  for (std::size_t b = 0; b < n; b += kBatch) {
    Scoped s(&t, "helo.classify_const");
    for (std::size_t i = b; i < std::min(n, b + kBatch); ++i)
      out.window_tmpl[i] = frozen.classify_const(recs[w0 + i].message);
  }
  for (auto& tid : out.window_tmpl)
    if (tid == helo::TemplateMiner::kNoTemplate) {
      tid = unknown;
      ++misses;
    }
  out.const_ns = t.total_ns("helo.classify_const") / static_cast<double>(n);
  out.unknown_share = static_cast<double>(misses) / static_cast<double>(n);

  helo::TemplateMiner fresh;
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < recs.size(); b += kBatch) {
    Scoped s(&t, "helo.classify");
    for (std::size_t i = b; i < std::min(recs.size(), b + kBatch); ++i)
      sum += fresh.classify(recs[i].message);
  }
  g_sink = g_sink + sum;
  out.classify_ns =
      t.total_ns("helo.classify") / static_cast<double>(recs.size());
  return out;
}

/// PredictionService::shard_of (the router) over the window's node ids.
double probe_route(const Ready& r, Tracer& t) {
  advisor::AdvisorService svc(r.trace.topology, r.model, serve_config(r.model));
  const serve::PredictionService& service = svc.service();
  const auto& recs = r.trace.records;
  constexpr int kRepeats = 8;
  std::size_t calls = 0, sum = 0;
  for (int k = 0; k < kRepeats; ++k)
    for (std::size_t b = r.window_begin; b < recs.size(); b += kBatch) {
      Scoped s(&t, "serve.route");
      const std::size_t e = std::min(recs.size(), b + kBatch);
      for (std::size_t i = b; i < e; ++i) sum += service.shard_of(recs[i].node_id);
      calls += e - b;
    }
  g_sink = g_sink + sum;
  return t.total_ns("serve.route") / static_cast<double>(calls);
}

/// Saturated SpscRing hand-off: this thread pushes, one consumer thread
/// pops in worker-sized batches. ns per item, end to end.
double probe_ring_handoff(Tracer& t) {
  using Item = serve::ShardedEngine::Item;
  constexpr std::size_t kItems = 1u << 21;
  serve::SpscRing<Item> ring(serve::ServiceConfig{}.ingest_capacity /
                             kServeShards);
  const std::size_t batch = serve::ServiceConfig{}.batch;
  std::size_t got = 0;
  Scoped s(&t, "serve.ring_handoff");
  const std::int64_t t0 = now_ns();
  std::thread consumer([&] {
    std::vector<Item> out;
    out.reserve(batch);
    while (got < kItems && ring.pop_wait(out, batch)) {
      got += out.size();
      out.clear();
    }
  });
  for (std::size_t i = 0; i < kItems; ++i)
    ring.push(Item{static_cast<std::int64_t>(i), 0, 0, 0, {}});
  consumer.join();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(kItems);
}

/// Paced pushes into an idle SpscRing: how long a consumer parked in
/// pop_wait takes to see an item. Returns (p50, p99) in us.
std::pair<double, double> probe_ring_wake(Tracer& t) {
  constexpr int kPushes = 2000;
  constexpr std::int64_t kGapNs = 500'000;  // long enough to reach the nap
  serve::SpscRing<std::int64_t> ring(64);
  std::vector<std::int64_t> wake;
  wake.reserve(kPushes);
  Scoped s(&t, "serve.ring_wake");
  std::thread consumer([&] {
    std::vector<std::int64_t> out;
    out.reserve(64);
    while (ring.pop_wait(out, 64)) {
      const std::int64_t now = now_ns();
      for (const std::int64_t pushed : out) wake.push_back(now - pushed);
      out.clear();
    }
  });
  const std::int64_t start = now_ns();
  for (int k = 0; k < kPushes; ++k) {
    const std::int64_t due = start + k * kGapNs;
    while (now_ns() < due) {
    }
    ring.push(now_ns());
  }
  ring.close();
  consumer.join();
  return {static_cast<double>(percentile(wake, 0.50)) * 1e-3,
          static_cast<double>(percentile(wake, 0.99)) * 1e-3};
}

struct EngineProbe {
  double feed_ns = 0.0;
  double close_us = 0.0;
  double swap_us = 0.0;
};

/// One OnlineEngine fed the window on this thread, each call timed and
/// split by whether it closed a bucket; then swap_model between the
/// input model and the batch-mined one.
EngineProbe probe_engine(const Ready& r, const HeloProbe& helo,
                         const core::OfflineModel& mined, double clock_ns,
                         Tracer& t) {
  const core::ModelState input =
      core::ModelState::build(r.model.chains, r.model.profiles);
  const core::ModelState other =
      core::ModelState::build(mined.chains, mined.profiles);
  core::OnlineEngine engine(r.trace.topology, r.model.chains, r.model.profiles,
                            serve_config(r.model).serve.engine);
  const auto& recs = r.trace.records;
  double feed_sum = 0.0, close_sum = 0.0;
  std::size_t feeds = 0, closes = 0;
  {
    Scoped s(&t, "engine.replay");
    for (std::size_t i = r.window_begin; i < recs.size(); ++i) {
      const std::size_t buckets = engine.stats().buckets;
      const std::int64_t a = now_ns();
      engine.feed(recs[i], helo.window_tmpl[i - r.window_begin]);
      const auto d = static_cast<double>(now_ns() - a);
      if (engine.stats().buckets == buckets) {
        feed_sum += d;
        ++feeds;
      } else {
        close_sum += d;
        ++closes;
      }
    }
    const std::int64_t a = now_ns();
    engine.finish(r.trace.t_end_ms);
    close_sum += static_cast<double>(now_ns() - a);
    ++closes;
  }
  EngineProbe out;
  out.feed_ns = feed_sum / static_cast<double>(std::max<std::size_t>(1, feeds)) -
                clock_ns;
  out.close_us = (close_sum / static_cast<double>(closes) - clock_ns) * 1e-3;

  constexpr int kSwaps = 200;
  for (int k = 0; k < kSwaps; ++k) {
    Scoped s(&t, "engine.swap_model");
    engine.swap_model(k % 2 == 0 ? &other : &input);
  }
  out.swap_us = t.total_ns("engine.swap_model") / kSwaps * 1e-3;
  return out;
}

struct MiningProbe {
  double fold_ns = 0.0;
  double build_us = 0.0;
  double changed_ratio = 0.0;
  double publish_ns = 0.0;
  double pin_ns = 0.0;
};

MiningProbe probe_mining(const RunState& s, Tracer& t) {
  MiningProbe out;
  mining::OnlineMiner miner(mine_config().miner);
  std::size_t builds = 0, changed = 0;
  std::uint64_t last = 0;
  for (std::size_t b = 0; b < s.events.size(); b += kBatch) {
    const std::size_t e = std::min(s.events.size(), b + kBatch);
    {
      Scoped fold(&t, "mining.fold");
      for (std::size_t i = b; i < e; ++i) miner.fold(s.events[i]);
    }
    if (e - b < kBatch) break;  // no publish boundary
    core::OfflineModel m;
    {
      Scoped build(&t, "mining.build_model");
      m = miner.build_model(nullptr);
    }
    const std::uint64_t d = core::model_digest(m);
    changed += builds == 0 || d != last;
    last = d;
    ++builds;
  }
  out.fold_ns = t.total_ns("mining.fold") / static_cast<double>(s.events.size());
  out.build_us =
      t.total_ns("mining.build_model") / static_cast<double>(builds) * 1e-3;
  out.changed_ratio =
      static_cast<double>(changed) / static_cast<double>(builds);

  // The hub, as the miner publishes into it and a shard worker pins it.
  serve::ModelHub hub(
      std::make_unique<const core::ModelState>(core::ModelState::build({}, {})));
  constexpr int kPublishes = 64;
  std::vector<std::unique_ptr<const core::ModelState>> next;
  for (int k = 0; k < kPublishes; ++k)
    next.push_back(std::make_unique<const core::ModelState>(
        core::ModelState::build(s.oracle.model.chains,
                                s.oracle.model.profiles)));
  for (auto& m : next) {
    Scoped p(&t, "mining.hub_publish");
    hub.publish(std::move(m));
  }
  out.publish_ns = t.total_ns("mining.hub_publish") / kPublishes;
  constexpr std::size_t kPins = 1u << 20;
  for (std::size_t b = 0; b < kPins; b += kBatch) {
    Scoped p(&t, "mining.hub_pin");
    for (std::size_t i = 0; i < kBatch; ++i) {
      const serve::ModelHub::Handle h = hub.pin(0);
      g_sink = g_sink + h.epoch();
    }
  }
  out.pin_ns = t.total_ns("mining.hub_pin") / static_cast<double>(kPins);
  return out;
}

/// CheckpointAdvisor::on_prediction over a serving pass's predictions.
double probe_advisor(const Ready& r, const std::vector<core::Prediction>& preds,
                     double clock_ns) {
  if (preds.empty()) return 0.0;
  constexpr int kRepeats = 50;
  double sum = 0.0;
  for (int k = 0; k < kRepeats; ++k) {
    advisor::CheckpointAdvisor adv(advisor::AdvisorConfig{},
                                   nodes_per_midplane(r.trace.topology));
    for (const core::Prediction& p : preds) {
      const std::int64_t a = now_ns();
      adv.on_prediction(p);
      sum += static_cast<double>(now_ns() - a);
    }
  }
  return sum / static_cast<double>(kRepeats * preds.size()) - clock_ns;
}

struct TrainStages {
  double helo = 0, signals = 0, profile = 0, detect = 0, xcorr = 0, grite = 0,
         location = 0;
  std::size_t chains = 0;
  double sum() const {
    return helo + signals + profile + detect + xcorr + grite + location;
  }
};

/// train_offline's stages (hybrid), each called on its own through its
/// stage function and timed; the glue between them is left untimed.
TrainStages probe_train(const Ready& r, Tracer& t) {
  const auto& recs = r.trace.records;
  const std::int64_t train_end = r.model.train_end_ms;
  const core::PipelineConfig cfg;
  TrainStages out;
  const auto timed = [&t](const char* name, double& secs, auto&& stage) {
    const std::int64_t a = now_ns();
    {
      Scoped s(&t, name);
      stage();
    }
    secs = seconds_between(a, now_ns());
  };

  helo::TemplateMiner helo;
  std::vector<std::uint32_t> tids;
  timed("train.helo", out.helo, [&] {
    for (const auto& rec : recs) {
      if (rec.time_ms >= train_end) break;
      tids.push_back(helo.classify(rec.message));
    }
  });
  const std::size_t n = tids.size(), types = helo.size();

  sigkit::SignalSet signals(r.trace.t_begin_ms, train_end, cfg.dt_ms, types);
  timed("train.signals", out.signals, [&] {
    for (std::size_t i = 0; i < n; ++i)
      signals.add_event(tids[i], recs[i].time_ms);
  });

  std::vector<core::SignalProfile> profiles(types);
  timed("train.profile", out.profile, [&] {
    for (std::size_t k = 0; k < types; ++k)
      profiles[k] = core::build_profile(signals.signal(k).as_doubles(),
                                        cfg.profile);
  });
  const auto severity = core::majority_severity(types, tids, recs, n);

  std::vector<sigkit::OutlierStream> streams(types);
  timed("train.detect", out.detect, [&] {
    for (std::size_t k = 0; k < types; ++k) {
      core::OnlineDetector det(profiles[k], cfg.engine.median_window,
                               cfg.engine.detector);
      const auto& v = signals.signal(k).v;
      for (std::size_t i = 0; i < v.size(); ++i) {
        const auto res = det.feed(v[i]);
        if (res.kind != core::OutlierKind::None && res.onset)
          streams[k].push_back(static_cast<std::int32_t>(i));
      }
    }
  });
  // Per-onset node sets, as train_offline attaches them.
  core::EventsBySignal events(types);
  for (std::size_t k = 0; k < types; ++k)
    for (const std::int32_t sample : streams[k]) {
      core::OutlierEvent e;
      e.sample = sample;
      events[k].push_back(std::move(e));
    }
  for (std::size_t i = 0; i < n; ++i) {
    if (recs[i].node_id < 0) continue;
    const auto sample = static_cast<std::int32_t>(
        (recs[i].time_ms - r.trace.t_begin_ms) / cfg.dt_ms);
    const auto& stream = streams[tids[i]];
    auto it = std::upper_bound(stream.begin(), stream.end(), sample);
    if (it == stream.begin()) continue;
    --it;
    if (sample - *it > 6) continue;
    auto& nodes =
        events[tids[i]][static_cast<std::size_t>(it - stream.begin())].nodes;
    if (nodes.size() < 8 &&
        std::find(nodes.begin(), nodes.end(), recs[i].node_id) == nodes.end())
      nodes.push_back(recs[i].node_id);
  }

  sigkit::XcorrConfig xc = cfg.xcorr;
  xc.total_samples = signals.samples();
  std::vector<sigkit::PairCorrelation> seeds;
  timed("train.xcorr", out.xcorr,
        [&] { seeds = sigkit::correlate_all(streams, xc, cfg.threads); });

  core::GriteConfig gc = cfg.grite;
  gc.total_samples = signals.samples();
  gc.threads = cfg.threads;
  std::vector<core::Chain> chains;
  timed("train.grite", out.grite,
        [&] { chains = core::mine_gradual_itemsets(streams, seeds, gc); });
  core::annotate_failure_items(chains, severity);

  core::LocationConfig lc;
  lc.tolerance = cfg.grite.tolerance;
  timed("train.location", out.location, [&] {
    core::annotate_locations(chains, events, r.trace.topology, lc);
  });
  out.chains = chains.size();
  return out;
}

double pct_change(double now, double base) {
  return base != 0.0 ? (now / base - 1.0) * 100.0 : 0.0;
}

void ledger_line(const char* what, double total, const char* parts,
                 double sum) {
  std::printf("  %-44s %12.1f\n  %-44s %12.1f   unexplained %+.1f (%.1f%%)\n",
              what, total, parts, sum, total - sum,
              total != 0.0 ? (total - sum) / total * 100.0 : 0.0);
}

}  // namespace

std::vector<Metric> run_traced(RunState& s, Tracer& t) {
  const Ready& r = s.ready;
  const std::size_t all = r.trace.records.size();
  const double clock_ns = clock_cost_ns();

  // The miner's heap, counted on a pass of its own (counting costs every
  // allocation an atomic update, which the reference round must not pay).
  HeapUse mine_heap;
  s.record(with_heap(mine_heap, [&] { return mine_pass(r, all, nullptr); }));

  // Untraced reference round: the baseline of the tracing overhead.
  s.warm_serve();
  const ServeResult closed0 = serve_closed(r, r.window_begin, all, nullptr);
  s.record(closed0, "closed");
  s.warm_mine();
  const MineResult mine0 = mine_pass(r, all, nullptr);
  s.record(mine0);
  const TrainResult train0 = train_pass(r, nullptr);
  s.record(train0);

  // Traced round: the same passes with spans around every call into ELSA.
  s.warm_serve();
  const ServeResult closed = serve_closed(r, r.window_begin, all, &t);
  s.record(closed, "closed");
  s.warm_serve();
  std::vector<std::int64_t> latency;
  latency.reserve(s.plan.due.size());
  const OpenResult open = serve_open(r, s.plan, latency, &t);
  s.record(open);
  s.warm_mine();
  const MineResult mine = mine_pass(r, all, &t);
  s.record(mine);
  const TrainResult train = train_pass(r, &t);
  s.record(train);

  // Layer probes on the same inputs.
  const HeloProbe helo = probe_helo(r, t);
  const double route_ns = probe_route(r, t);
  const double handoff_ns = probe_ring_handoff(t);
  const auto [wake_p50, wake_p99] = probe_ring_wake(t);
  const EngineProbe engine = probe_engine(r, helo, s.oracle.model, clock_ns, t);
  const MiningProbe mining = probe_mining(s, t);
  const double advisor_ns = probe_advisor(r, closed.predictions, clock_ns);
  const TrainStages stages = probe_train(r, t);
  s.tally.check(stages.chains == r.model.chains.size(),
                "train stages: " + std::to_string(stages.chains) +
                    " chains, train_offline " +
                    std::to_string(r.model.chains.size()));

  const auto per = [](double total_ns, std::size_t n) {
    return total_ns / static_cast<double>(n);
  };
  const double parse_ns = per(t.total_ns("logio.read_ras_log"), all);
  const double submit_ns = per(t.total_ns("serve.submit_batch"), closed.records);
  const double mine_submit_ns = per(t.total_ns("mining.submit_batch"), all);
  const double cpu_ns = per(static_cast<double>(closed.cpu_ns), closed.records);
  std::vector<std::int64_t> depths = open.depths;
  std::vector<std::int64_t> late = s.plan.late;
  const double depth_p99 = static_cast<double>(percentile(depths, 0.99));
  const double depth_max =
      static_cast<double>(*std::max_element(depths.begin(), depths.end()));
  const double late_p99_us = static_cast<double>(percentile(late, 0.99)) * 1e-3;

  const double serve_rps = static_cast<double>(closed.records) / closed.seconds;
  const double serve_rps0 =
      static_cast<double>(closed0.records) / closed0.seconds;
  const double mine_rps = static_cast<double>(mine.records) / mine.seconds;
  const double mine_rps0 = static_cast<double>(mine0.records) / mine0.seconds;
  std::vector<std::int64_t> lat = latency;
  std::printf("traced passes: serve %.0f rec/s (untraced %.0f), open-loop "
              "p50 %.2f us p99 %.2f us over %zu records, mine %.0f rec/s "
              "(untraced %.0f), train %.3f s (untraced %.3f)\n",
              serve_rps, serve_rps0,
              static_cast<double>(percentile(lat, 0.50)) * 1e-3,
              static_cast<double>(percentile(lat, 0.99)) * 1e-3, lat.size(),
              mine_rps, mine_rps0, train.seconds, train0.seconds);

  std::printf("ledger (ns per record unless stated):\n");
  ledger_line("serve producer path, 1/serve_records_per_s", 1e9 / serve_rps,
              "serve.submit_ns", submit_ns);
  ledger_line("serve.submit_ns", submit_ns,
              "helo.classify_const + serve.route + ring push",
              helo.const_ns + route_ns + handoff_ns);
  ledger_line("mine producer path, 1/mine_records_per_s", 1e9 / mine_rps,
              "mining.submit_ns", mine_submit_ns);
  ledger_line("mining.submit_ns", mine_submit_ns,
              "helo.classify + serve.route + ring push",
              helo.classify_ns + route_ns + handoff_ns);
  ledger_line("train_s (s)", train.seconds, "sum of train.* stages (s)",
              stages.sum());
  std::printf("tracing overhead (traced over untraced cost, minus 1): "
              "serve %+.1f%%, mine %+.1f%%, train %+.1f%%\n",
              pct_change(serve_rps0, serve_rps), pct_change(mine_rps0, mine_rps),
              pct_change(train.seconds, train0.seconds));

  return {
      {"logio.parse_ns", parse_ns, "ns"},
      {"helo.classify_const_ns", helo.const_ns, "ns"},
      {"helo.classify_ns", helo.classify_ns, "ns"},
      {"helo.unknown_share", helo.unknown_share, "ratio"},
      {"serve.submit_ns", submit_ns, "ns"},
      {"serve.submit_self_ns", submit_ns - helo.const_ns - route_ns, "ns"},
      {"serve.route_ns", route_ns, "ns"},
      {"serve.ring_handoff_ns", handoff_ns, "ns"},
      {"serve.ring_wake_p50_us", wake_p50, "us"},
      {"serve.ring_wake_p99_us", wake_p99, "us"},
      {"serve.queue_depth_p99", depth_p99, "count"},
      {"serve.queue_depth_max", depth_max, "count"},
      {"serve.gen_late_p99_us", late_p99_us, "us"},
      {"serve.shard_imbalance", closed.imbalance, "ratio"},
      {"serve.cpu_ns_per_record", cpu_ns, "ns"},
      {"serve.useful_cpu_ratio", (helo.const_ns + engine.feed_ns) / cpu_ns,
       "ratio"},
      {"serve.finish_ms", closed.finish_ms, "ms"},
      {"engine.feed_ns", engine.feed_ns, "ns"},
      {"engine.close_us", engine.close_us, "us"},
      {"engine.swap_us", engine.swap_us, "us"},
      {"engine.predictions", static_cast<double>(closed.predictions.size()),
       "count"},
      {"mining.submit_ns", mine_submit_ns, "ns"},
      {"mining.fold_ns", mining.fold_ns, "ns"},
      {"mining.build_model_us", mining.build_us, "us"},
      {"mining.publish_changed_ratio", mining.changed_ratio, "ratio"},
      {"mining.hub_publish_ns", mining.publish_ns, "ns"},
      {"mining.hub_pin_ns", mining.pin_ns, "ns"},
      {"mining.finish_ms", mine.finish_ms, "ms"},
      {"mining.mem_mb", mine_heap.mean_mib, "MiB"},
      {"advisor.on_prediction_ns", advisor_ns, "ns"},
      {"advisor.dropped", static_cast<double>(closed.advisor_dropped), "count"},
      {"train.helo_s", stages.helo, "s"},
      {"train.signals_s", stages.signals, "s"},
      {"train.profile_s", stages.profile, "s"},
      {"train.detect_s", stages.detect, "s"},
      {"train.xcorr_s", stages.xcorr, "s"},
      {"train.grite_s", stages.grite, "s"},
      {"train.location_s", stages.location, "s"},
      {"train.unexplained_s", train.seconds - stages.sum(), "s"},
      {"trace.serve_overhead_pct", pct_change(serve_rps0, serve_rps), "%"},
      {"trace.mine_overhead_pct", pct_change(mine_rps0, mine_rps), "%"},
      {"trace.train_overhead_pct", pct_change(train.seconds, train0.seconds),
       "%"},
  };
}

}  // namespace elsabench
