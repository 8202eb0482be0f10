#include "passes.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "elsa/model_io.hpp"

namespace elsabench {

using namespace elsa;

namespace {

/// Submits per traced batch span, and the sampling stride of per-record
/// submit spans (whose id is the record's index).
constexpr std::size_t kSpanBatch = 1024;
constexpr std::size_t kSpanSample = 64;
/// Records between two backlog samples of the open-loop producer.
constexpr std::size_t kBacklogStride = 1024;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Submit records [begin, end) from this thread; with a tracer, spans over
/// batches of calls plus sampled per-record spans. Returns records that
/// were not queued.
std::uint64_t submit_range(serve::PredictionService& service,
                           const std::vector<simlog::LogRecord>& recs,
                           std::size_t begin, std::size_t end, Tracer* tracer,
                           const char* batch_name, const char* record_name) {
  std::uint64_t refused = 0;
  if (tracer == nullptr) {
    for (std::size_t i = begin; i < end; ++i)
      refused += service.submit_result(recs[i], true) !=
                 serve::SubmitResult::kQueued;
    return refused;
  }
  for (std::size_t b = begin; b < end; b += kSpanBatch) {
    Scoped batch(tracer, batch_name);
    const std::size_t e = std::min(end, b + kSpanBatch);
    for (std::size_t i = b; i < e; ++i) {
      if (i % kSpanSample == 0) {
        Scoped one(tracer, record_name, static_cast<std::int64_t>(i));
        refused += service.submit_result(recs[i], true) !=
                   serve::SubmitResult::kQueued;
      } else {
        refused += service.submit_result(recs[i], true) !=
                   serve::SubmitResult::kQueued;
      }
    }
  }
  return refused;
}

double imbalance_of(const std::vector<std::uint64_t>& per_shard) {
  if (per_shard.empty()) return 0.0;
  const double total = static_cast<double>(
      std::accumulate(per_shard.begin(), per_shard.end(), std::uint64_t{0}));
  const double peak = static_cast<double>(
      *std::max_element(per_shard.begin(), per_shard.end()));
  return total > 0.0 ? peak * static_cast<double>(per_shard.size()) / total
                     : 0.0;
}

/// Stamps each processed record's instant: the benchmark's observer of the
/// shard workers. Shard s processes the records routed to it in submission
/// order, so its k-th event is the k-th entry of order[s]. Calls for one
/// shard are serialized by the tap contract.
class DoneTap final : public serve::EventTap {
 public:
  DoneTap(const std::vector<std::vector<std::uint32_t>>& order,
          std::int64_t* done)
      : order_(order), done_(done), next_(order.size()) {}

  void publish(std::size_t shard, const serve::ClassifiedEvent&) override {
    Cursor& c = next_[shard];
    const std::vector<std::uint32_t>& o = order_[shard];
    if (c.n < o.size()) done_[o[c.n]] = now_ns();
    ++c.n;
  }

 private:
  struct alignas(64) Cursor {
    std::size_t n = 0;
  };
  const std::vector<std::vector<std::uint32_t>>& order_;
  std::int64_t* done_;
  std::vector<Cursor> next_;
};

ServeResult finish_serve(advisor::AdvisorService& svc, const Ready& r,
                         std::size_t records, std::int64_t t0,
                         std::int64_t cpu0, Tracer* tracer) {
  ServeResult out;
  out.records = records;
  const std::int64_t f0 = now_ns();
  {
    Scoped s(tracer, "serve.finish");
    svc.finish(r.trace.t_end_ms);
  }
  const std::int64_t t1 = now_ns();
  out.cpu_ns = process_cpu_ns() - cpu0;
  out.seconds = seconds_between(t0, t1);
  out.finish_ms = static_cast<double>(t1 - f0) * 1e-6;
  const serve::MetricsSnapshot m = svc.service().metrics();
  out.conserved = m.records_conserved();
  out.not_processed = records > m.records_out ? records - m.records_out : 0;
  out.advisor_dropped = svc.dropped();
  out.imbalance = imbalance_of(svc.service().shard_processed());
  out.predictions = svc.service().predictions();
  out.prediction_digest = prediction_digest(out.predictions);
  out.schedule_digest = svc.schedule().digest();
  if (tracer) {
    tracer->count("serve.records_in", static_cast<double>(m.records_in));
    tracer->count("serve.records_out", static_cast<double>(m.records_out));
    tracer->count("serve.predictions", static_cast<double>(m.predictions));
    tracer->count("advisor.dropped", static_cast<double>(out.advisor_dropped));
  }
  return out;
}

}  // namespace

advisor::AdvisorServiceConfig serve_config(const core::OfflineModel& model) {
  advisor::AdvisorServiceConfig cfg;
  cfg.serve.shards = kServeShards;
  cfg.serve.engine.use_location = model.method != core::Method::DataMining;
  cfg.serve.engine.raw_event_matching =
      model.method == core::Method::DataMining;
  return cfg;
}

mining::MinerServiceConfig mine_config() {
  mining::MinerServiceConfig cfg;
  cfg.serve.shards = 1;
  cfg.publish_every = kPublishEvery;
  return cfg;
}

double set_up(const Campaign& c, Ready& out, Tracer* tracer) {
  out = Ready();  // never hold two parsed logs at once
  const std::int64_t t0 = now_ns();
  {
    Scoped s(tracer, "logio.read_ras_log");
    std::size_t malformed = 0;
    out.trace = parse_log(c.log_text, c.topology, &malformed);
    if (malformed != 0 || out.trace.records.size() != c.lines)
      throw std::runtime_error("the rendered log did not parse back whole");
  }
  {
    Scoped s(tracer, "model_io.load_model");
    out.model = parse_model(c.model_text);
  }
  double seconds = 0.0;
  {
    Scoped s(tracer, "setup.construct");
    advisor::AdvisorService serve(out.trace.topology, out.model,
                                  serve_config(out.model));
    mining::MinerService mine(out.trace.topology, mine_config());
    seconds = seconds_between(t0, now_ns());
  }
  const auto& recs = out.trace.records;
  out.window_begin = static_cast<std::size_t>(
      std::lower_bound(recs.begin(), recs.end(), out.model.train_end_ms,
                       [](const simlog::LogRecord& rec, std::int64_t t) {
                         return rec.time_ms < t;
                       }) -
      recs.begin());
  return seconds;
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::printf("FAIL: %s\n", what.c_str());
}

ServeResult serve_closed(const Ready& r, std::size_t begin, std::size_t end,
                         Tracer* tracer) {
  Scoped pass(tracer, "serve.closed_pass");
  advisor::AdvisorService svc(r.trace.topology, r.model,
                              serve_config(r.model));
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  submit_range(svc.service(), r.trace.records, begin, end, tracer,
               "serve.submit_batch", "serve.submit");
  return finish_serve(svc, r, end - begin, t0, cpu0, tracer);
}

OpenPlan make_open_plan(const Ready& r) {
  const auto& recs = r.trace.records;
  const std::size_t n = recs.size() - r.window_begin;
  std::vector<std::int64_t> t_ms(n);
  for (std::size_t i = 0; i < n; ++i) t_ms[i] = recs[r.window_begin + i].time_ms;

  OpenPlan plan;
  plan.due = due_schedule(t_ms, kOpenRate);
  // Routing is a pure function of the node id; ask a service for it.
  advisor::AdvisorService probe(r.trace.topology, r.model,
                                serve_config(r.model));
  plan.order.resize(probe.service().shards());
  for (std::size_t i = 0; i < n; ++i)
    plan.order[probe.service().shard_of(recs[r.window_begin + i].node_id)]
        .push_back(static_cast<std::uint32_t>(i));
  plan.done.assign(n, 0);
  plan.late.assign(n, 0);
  return plan;
}

OpenResult serve_open(const Ready& r, OpenPlan& plan,
                      std::vector<std::int64_t>& latency_ns, Tracer* tracer) {
  Scoped pass(tracer, "serve.open_pass");
  const auto& recs = r.trace.records;
  const std::size_t n = plan.due.size();
  std::fill(plan.done.begin(), plan.done.end(), 0);
  DoneTap tap(plan.order, plan.done.data());
  advisor::AdvisorServiceConfig cfg = serve_config(r.model);
  cfg.serve.event_tap = &tap;
  advisor::AdvisorService svc(r.trace.topology, r.model, cfg);
  serve::PredictionService& service = svc.service();

  OpenResult out;
  out.backlog.reserve(n / kBacklogStride + 1);
  out.depths.reserve(2 * (n / kBacklogStride + 1));
  std::uint64_t refused = 0;
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t base = now_ns() + 1'000'000;  // first record due in 1 ms
  out.base_ns = base;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = base + plan.due[i];
    std::int64_t t = now_ns();
    while (t < due) {
      cpu_relax();
      t = now_ns();
    }
    plan.late[i] = t - due;
    refused += service.submit_result(recs[r.window_begin + i], true) !=
               serve::SubmitResult::kQueued;
    if (i % kBacklogStride == kBacklogStride - 1) {
      const auto due_now = static_cast<std::int64_t>(
          std::upper_bound(plan.due.begin(), plan.due.end(), now_ns() - base) -
          plan.due.begin());
      std::int64_t processed = 0;
      for (const std::uint64_t p : service.shard_processed())
        processed += static_cast<std::int64_t>(p);
      out.backlog.push_back(due_now - processed);
      for (const std::size_t d : service.shard_depths())
        out.depths.push_back(static_cast<std::int64_t>(d));
    }
  }
  out.serve = finish_serve(svc, r, n, base, cpu0, tracer);
  out.serve.not_processed = std::max<std::uint64_t>(out.serve.not_processed,
                                                    refused);
  for (std::size_t i = 0; i < n; ++i)
    latency_ns.push_back(plan.done[i] == 0
                             ? std::numeric_limits<std::int64_t>::max()
                             : plan.done[i] - (base + plan.due[i]));
  // The rings hold at most this many records; a backlog that never drains
  // below it in the last quarter of the pass is growing, not queueing.
  const std::int64_t capacity = static_cast<std::int64_t>(
      serve::ServiceConfig{}.ingest_capacity);
  out.backlog_grew = backlog_grows(out.backlog, capacity);
  return out;
}

MineResult mine_pass(const Ready& r, std::size_t end, Tracer* tracer) {
  Scoped pass(tracer, "mining.pass");
  mining::MinerService ms(r.trace.topology, mine_config());
  MineResult out;
  out.records = end;
  const std::int64_t t0 = now_ns();
  submit_range(ms.service(), r.trace.records, 0, end, tracer,
               "mining.submit_batch", "mining.submit");
  const std::int64_t f0 = now_ns();
  {
    Scoped s(tracer, "mining.finish");
    // A slice ends one past its last record, the whole log at its end.
    ms.finish(end == r.trace.records.size()
                  ? r.trace.t_end_ms
                  : r.trace.records[end - 1].time_ms + 1);
  }
  const std::int64_t t1 = now_ns();
  out.seconds = seconds_between(t0, t1);
  out.finish_ms = static_cast<double>(t1 - f0) * 1e-6;
  const serve::MetricsSnapshot m = ms.service().metrics();
  out.conserved = m.records_conserved();
  out.not_processed = end > m.records_out ? end - m.records_out : 0;
  out.model_digest = ms.final_digest();
  out.publish_digest = ms.publish_stream_digest();
  out.publishes = ms.publishes();
  out.folded = ms.folded();
  out.swaps = m.model_swaps;
  if (tracer) {
    tracer->count("mining.records_in", static_cast<double>(m.records_in));
    tracer->count("mining.folded", static_cast<double>(out.folded));
    tracer->count("mining.publishes", static_cast<double>(out.publishes));
    tracer->count("engine.swaps", static_cast<double>(out.swaps));
  }
  return out;
}

mining::BatchMineResult mine_oracle(const Ready& r,
                                    std::vector<serve::ClassifiedEvent>& events) {
  helo::TemplateMiner classifier;
  events.clear();
  events.reserve(r.trace.records.size());
  for (const auto& rec : r.trace.records)
    events.push_back({rec.time_ms, rec.node_id,
                      classifier.classify(rec.message),
                      static_cast<std::uint8_t>(rec.severity)});
  std::stable_sort(events.begin(), events.end(), mining::canonical_less);
  return mining::batch_mine(events, mine_config().miner, kPublishEvery,
                            classifier);
}

TrainResult train_pass(const Ready& r, Tracer* tracer) {
  TrainResult out;
  const std::int64_t t0 = now_ns();
  core::OfflineModel model;
  {
    Scoped s(tracer, "train.offline");
    model = core::train_offline(r.trace, r.model.train_end_ms,
                                core::Method::Hybrid, core::PipelineConfig{});
  }
  out.seconds = seconds_between(t0, now_ns());
  out.digest = core::model_digest(model);
  return out;
}

std::uint64_t prediction_digest(const std::vector<core::Prediction>& preds) {
  std::string text;
  char buf[256];
  for (const core::Prediction& p : preds) {
    std::snprintf(buf, sizeof buf, "%lld %lld %lld %u %zu %d %a %lld |",
                  static_cast<long long>(p.trigger_time_ms),
                  static_cast<long long>(p.issue_time_ms),
                  static_cast<long long>(p.predicted_time_ms), p.tmpl,
                  p.chain_id, static_cast<int>(p.scope), p.confidence,
                  static_cast<long long>(p.lead_ms));
    text += buf;
    for (const std::int32_t node : p.nodes) text += " " + std::to_string(node);
    text += '\n';
  }
  return core::fnv1a_digest(text);
}

void RunState::prepare(Tracer* tracer) {
  (void)set_up(campaign, ready, tracer);
  model_digest = core::fnv1a_digest(campaign.model_text);
  oracle = mine_oracle(ready, events);
  plan = make_open_plan(ready);
}

void RunState::warm_serve() {
  const std::size_t w0 = ready.window_begin;
  (void)serve_closed(ready, w0,
                     std::min(ready.trace.records.size(), w0 + 50'000), nullptr);
}

void RunState::warm_mine() {
  (void)mine_pass(ready, std::min<std::size_t>(ready.trace.records.size(), 100'000),
                  nullptr);
}

void RunState::record(const ServeResult& s, const char* label) {
  const std::string what = std::string("serve ") + label + ": ";
  tally.attempted += s.records;
  tally.failed += s.not_processed + s.advisor_dropped;
  tally.check(s.conserved, what + "records not conserved");
  tally.check(s.not_processed == 0,
              what + std::to_string(s.not_processed) +
                  " records shed, quarantined or unprocessed");
  tally.check(s.advisor_dropped == 0,
              what + std::to_string(s.advisor_dropped) + " advisor drops");
  if (!have_serve_reference) {
    serve_predictions = s.prediction_digest;
    serve_schedule = s.schedule_digest;
    have_serve_reference = true;
  }
  tally.check(s.prediction_digest == serve_predictions,
              what + "merged predictions differ from the first pass");
  tally.check(s.schedule_digest == serve_schedule,
              what + "checkpoint schedule differs from the first pass");
}

void RunState::record(const OpenResult& o) {
  record(o.serve, "open");
  if (!o.backlog_grew) return;
  // Every record of a pass that fell behind for good counts as failed.
  tally.failed += o.serve.records;
  tally.check(false, "serve open: backlog grew until the end of the pass");
}

void RunState::record(const MineResult& m) {
  tally.attempted += m.records;
  tally.failed += m.not_processed;
  tally.check(m.conserved, "mine: records not conserved");
  tally.check(m.not_processed == 0, "mine: " + std::to_string(m.not_processed) +
                                        " records not processed");
  tally.check(m.folded == events.size(), "mine: folded " +
                                             std::to_string(m.folded) + " of " +
                                             std::to_string(events.size()));
  tally.check(m.model_digest == oracle.model_digest,
              "mine: final model " + hex64(m.model_digest) +
                  " != batch mining " + hex64(oracle.model_digest));
  tally.check(m.publish_digest == oracle.publish_digest &&
                  m.publishes == oracle.publishes,
              "mine: publish stream " + hex64(m.publish_digest) +
                  " != batch mining " + hex64(oracle.publish_digest));
}

void RunState::record(const TrainResult& t) {
  tally.check(t.digest == model_digest,
              "train: model " + hex64(t.digest) + " != input model " +
                  hex64(model_digest));
}

std::vector<std::pair<std::string, std::string>> RunState::digests() const {
  return {{"serve_predictions", hex64(serve_predictions)},
          {"advisor_schedule", hex64(serve_schedule)},
          {"mine_model", hex64(oracle.model_digest)},
          {"mine_publish_stream", hex64(oracle.publish_digest)},
          {"train_model", hex64(model_digest)}};
}

}  // namespace elsabench
