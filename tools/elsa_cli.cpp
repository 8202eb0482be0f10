// elsa — command-line frontend for the toolkit.
//
//   elsa generate --system bluegene|mercury --days N [--seed S] --out LOG
//       Generate a synthetic campaign and write it as a RAS text log.
//
//   elsa train --system bluegene|mercury --log LOG [--method hybrid|signal|dm]
//              [--train-days N] --out MODEL
//       Run the offline phase on a RAS log and persist the learned model.
//
//   elsa inspect --model MODEL
//       Summarise a model: templates, signal classes, chains.
//
//   elsa predict --system bluegene|mercury --log LOG --model MODEL
//       Stream a RAS log through the online engine and print alarms.
//
//   elsa serve --system bluegene|mercury --log LOG --model MODEL
//              [--shards N] [--speedup X] [--policy block|drop-oldest|shed]
//       Replay a RAS log through the multi-threaded sharded prediction
//       service (bounded ingest queue, one engine per topology shard),
//       print alarms as they are issued, and report serving metrics.
//       --speedup X replays at X trace-seconds per wall-second; 0 (the
//       default) replays as fast as possible. --policy picks what a full
//       shard ring does: block the producer (the default), evict the
//       oldest queued record, or shed the new one (counted).
//
//   elsa chaos --system bluegene|mercury --log LOG --model MODEL
//              [--plan SPEC|all|none] [--seed S] [--shards N]
//              [--policy block|drop-oldest|shed] [--speedup X]
//       Chaos-soak the serving layer: replay the log through a seeded
//       fault injector (drops, duplicates, corruption, reordering, clock
//       skew) and a fault plan wired into the shard workers (stalls,
//       worker kills), with a fast watchdog. Prints injector stats and
//       serve metrics, then verifies the conservation invariant
//       ingested == processed + quarantined + shed; exit 1 if violated.
//
//   elsa advise --system bluegene|mercury --days N --model MODEL
//              [--seed S] [--shards N] [--plan SPEC|all|none]
//              [--chaos-seed S] [--policy block|drop-oldest|shed]
//              [--speedup X] [--check 1] [--precision P] [--recall R]
//              [--interval-recall R] [--confidence C] [--hysteresis H]
//              [--gap-alpha A] [--episodes-per-failure E]
//       Close the prediction->action loop: regenerate the campaign from
//       (system, days, seed) — the ground-truth failure record must be
//       known, so the trace is rebuilt rather than read from a log —
//       replay it through serve plus the checkpoint advisor (optionally
//       under a chaos fault plan), score the proactive directives against
//       ground truth, and report the realised checkpoint waste of the
//       adaptive schedule vs the static-optimum baseline at the Table IV
//       cost points. Deterministic given (system, days, seed); prints the
//       schedule digest as the reproducibility receipt. --check 1 exits 1
//       unless the adaptive schedule strictly beats the static baseline
//       at every cost point.
//
//   elsa mine --system bluegene|mercury --days N [--seed S]
//             [--shards LIST] [--publish-every K] [--plan SPEC|none]
//             [--chaos-seed S] [--out MODEL] [--check 1]
//       Online incremental mining with RCU model hot-swap: replay the
//       regenerated campaign through the MinerService (live HELO
//       classification, per-shard lossless event taps, watermark-merged
//       incremental rule mining, models published into the serving
//       engines through the lock-free ModelHub) at each shard count in
//       LIST, and prove online ≡ batch: the final model digest AND the
//       interim publish-stream digest must equal batch-mining the
//       canonically sorted trace, and predictions served through the hub
//       must equal predictions served directly. --plan adds a leg under
//       serve-side chaos (stall/failworker only — faults that mutate the
//       record stream change the mined input legitimately). --check 1
//       exits 1 on any divergence: the CI gate.
//
// The --system flag supplies the machine topology (real deployments would
// read it from the site's configuration database). Each subcommand accepts
// exactly the flags listed for it, once each and each with a value; a
// numeric value must be a whole, finite number in the flag's range, and
// --system, --method and --policy must name one of their listed values.
// Anything else prints usage and exits 2 before any file is read.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include <atomic>
#include <chrono>
#include <thread>

#include "advisor/service.hpp"
#include "ckpt/simulator.hpp"
#include "mining/service.hpp"
#include "elsa/model_io.hpp"
#include "elsa/online.hpp"
#include "faultinject/injector.hpp"
#include "faultinject/plan.hpp"
#include "elsa/pipeline.hpp"
#include "elsa/report.hpp"
#include "serve/replayer.hpp"
#include "serve/service.hpp"
#include "simlog/logio.hpp"
#include "simlog/scenario.hpp"
#include "util/ascii.hpp"
#include "util/strings.hpp"

namespace {

using namespace elsa;

int usage() {
  std::cerr
      << "usage:\n"
         "  elsa generate --system bluegene|mercury --days N [--seed S] "
         "--out LOG\n"
         "  elsa train    --system bluegene|mercury --log LOG "
         "[--method hybrid|signal|dm] [--train-days N] --out MODEL\n"
         "  elsa inspect  --model MODEL\n"
         "  elsa predict  --system bluegene|mercury --log LOG --model MODEL "
         "[--max-alarms N]\n"
         "  elsa serve    --system bluegene|mercury --log LOG --model MODEL "
         "[--shards N] [--speedup X] [--policy block|drop-oldest|shed] "
         "[--max-alarms N]\n"
         "  elsa chaos    --system bluegene|mercury --log LOG --model MODEL "
         "[--plan SPEC|all|none] [--seed S] [--shards N] "
         "[--policy block|drop-oldest|shed] [--speedup X]\n"
         "  elsa advise   --system bluegene|mercury --days N --model MODEL "
         "[--seed S] [--shards N] [--plan SPEC|all|none] [--chaos-seed S] "
         "[--policy block|drop-oldest|shed] [--speedup X] [--check 1] "
         "[--precision P] [--recall R] [--interval-recall R] "
         "[--confidence C] [--hysteresis H] [--gap-alpha A] "
         "[--episodes-per-failure E]\n"
         "  elsa mine     --system bluegene|mercury --days N [--seed S] "
         "[--shards LIST] [--publish-every K] [--plan SPEC|none] "
         "[--chaos-seed S] [--out MODEL] [--check 1]\n";
  return 2;
}

/// A command line usage() answers: exit 2, not 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using Flags = std::map<std::string, std::string>;

/// Collects `--name value` pairs. Every name must be one of `known`, given
/// once and followed by a value.
Flags parse_flags(int argc, char** argv, int first,
                  const std::vector<std::string_view>& known) {
  Flags flags;
  for (int i = first; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--"))
      throw UsageError("expected a --flag, got '" + arg + "'");
    if (std::find(known.begin(), known.end(), arg.substr(2)) == known.end())
      throw UsageError("unknown flag '" + arg + "'");
    if (i + 1 == argc) throw UsageError("missing value for '" + arg + "'");
    if (!flags.emplace(arg.substr(2), argv[i + 1]).second)
      throw UsageError("repeated flag '" + arg + "'");
  }
  return flags;
}

/// The value of flag `name`, which the subcommand requires.
const std::string& required(const Flags& flags, const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end())
    throw UsageError("missing required flag '--" + name + "'");
  return it->second;
}

/// The value `text` of numeric flag `name` as a T in [lo, hi]. The whole
/// string must parse, a floating-point value must be finite, and the value
/// must be representable and in range; anything else is a UsageError that
/// names the flag.
template <class T>
T parse_number(const std::string& name, const std::string& text, T lo,
               T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  bool ok = !text.empty() && ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok || v < lo || v > hi) {
    std::ostringstream want;
    want << (std::is_floating_point_v<T> ? "a finite number" : "an integer")
         << " from " << lo << " to " << hi;
    throw UsageError("invalid --" + name + " '" + text + "': want " +
                     want.str());
  }
  return v;
}

/// Numeric flag `name` in [lo, hi], or `fallback` when it is absent.
template <class T>
T number(const Flags& flags, const std::string& name, T fallback,
         T lo = std::numeric_limits<T>::lowest(),
         T hi = std::numeric_limits<T>::max()) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback
                           : parse_number(name, it->second, lo, hi);
}

/// Numeric flag `name` in [lo, hi], which the subcommand requires.
template <class T>
T required_number(const Flags& flags, const std::string& name, T lo, T hi) {
  return parse_number(name, required(flags, name), lo, hi);
}

/// Campaign and training spans, in days: at least 0.001 (86 s), at most a
/// century.
constexpr double kMinDays = 0.001;
constexpr double kMaxDays = 36500.0;
/// Shard counts: one worker thread each.
constexpr std::size_t kMaxShards = 1024;

/// A 0/1 switch such as --check.
bool switch_on(const Flags& flags, const std::string& name) {
  return number<int>(flags, name, 0, 0, 1) != 0;
}

std::size_t shards_flag(const Flags& flags, std::size_t fallback) {
  return number<std::size_t>(flags, "shards", fallback, 1, kMaxShards);
}

/// Replay speed: trace-seconds per wall-second, 0 = as fast as possible.
double speedup_flag(const Flags& flags) {
  return number<double>(flags, "speedup", serve::ReplayOptions{}.speedup,
                        0.0, 1e9);
}

enum class System : std::uint8_t { kBlueGene, kMercury };

/// The machine --system names; it has no default.
System system_flag(const Flags& flags) {
  const std::string& name = required(flags, "system");
  if (name == "bluegene") return System::kBlueGene;
  if (name == "mercury") return System::kMercury;
  throw UsageError("invalid --system '" + name + "': want bluegene|mercury");
}

core::Method method_flag(const Flags& flags) {
  const auto it = flags.find("method");
  if (it == flags.end() || it->second == "hybrid") return core::Method::Hybrid;
  if (it->second == "signal") return core::Method::SignalOnly;
  if (it->second == "dm") return core::Method::DataMining;
  throw UsageError("invalid --method '" + it->second +
                   "': want hybrid|signal|dm");
}

serve::OverflowPolicy policy_flag(const Flags& flags) {
  const auto it = flags.find("policy");
  if (it == flags.end() || it->second == "block")
    return serve::OverflowPolicy::kBlock;
  if (it->second == "drop-oldest") return serve::OverflowPolicy::kDropOldest;
  if (it->second == "shed") return serve::OverflowPolicy::kShed;
  throw UsageError("invalid --policy '" + it->second +
                   "': want block|drop-oldest|shed");
}

topo::Topology topology_for(System system) {
  return system == System::kMercury ? topo::Topology::cluster(891, 32)
                                    : topo::Topology::bluegene(4, 2, 8, 16);
}

/// The generated campaign of `system`, deterministic in (seed, days).
simlog::Scenario scenario_for(System system, std::uint64_t seed,
                              double days) {
  return system == System::kMercury
             ? simlog::make_mercury_scenario(seed, days)
             : simlog::make_bluegene_scenario(seed, days);
}

simlog::Trace trace_from_log(const std::string& path, System system) {
  const auto topology = topology_for(system);
  auto parsed = simlog::read_ras_log_file(path, topology);
  if (parsed.records.empty())
    throw std::runtime_error("no records parsed from " + path);
  simlog::Trace trace;
  trace.topology = topology;
  trace.t_begin_ms = parsed.records.front().time_ms;
  trace.t_end_ms = parsed.records.back().time_ms + 1;
  trace.records = std::move(parsed.records);
  if (parsed.malformed_lines > 0)
    std::cerr << "warning: " << parsed.malformed_lines
              << " malformed lines skipped\n";
  return trace;
}

int cmd_generate(const Flags& flags) {
  const System system = system_flag(flags);
  const double days = required_number(flags, "days", kMinDays, kMaxDays);
  const auto seed = number<std::uint64_t>(flags, "seed", 2012);
  const auto& out = required(flags, "out");
  auto scenario = scenario_for(system, seed, days);
  const auto trace = scenario.generator.generate(scenario.config);
  simlog::write_ras_log_file(out, trace.records, trace.topology);
  std::cout << "wrote " << trace.records.size() << " records ("
            << trace.faults.size() << " injected failures) to " << out
            << "\n";
  return 0;
}

int cmd_train(const Flags& flags) {
  const System system = system_flag(flags);
  const core::Method method = method_flag(flags);
  const auto& out = required(flags, "out");
  const auto trace = trace_from_log(required(flags, "log"), system);
  const double span_days =
      static_cast<double>(trace.t_end_ms - trace.t_begin_ms) / 86'400'000.0;
  const double train_days =
      number(flags, "train-days", span_days, kMinDays, kMaxDays);

  core::PipelineConfig cfg;
  const std::int64_t train_end =
      trace.t_begin_ms +
      static_cast<std::int64_t>(train_days * 86'400'000.0);
  const auto model = core::train_offline(trace, train_end, method, cfg);
  core::save_model_file(out, model);

  std::size_t predictive = 0;
  for (const auto& c : model.chains) predictive += c.predictive();
  std::cout << core::to_string(method) << " model trained on "
            << util::format_double(train_days, 1) << " days: "
            << model.helo.size() << " event types, " << model.chains.size()
            << " chains (" << predictive << " predictive) -> " << out
            << "\n";
  return 0;
}

int cmd_inspect(const Flags& flags) {
  const auto model = core::load_model_file(required(flags, "model"));
  std::cout << "model: " << core::to_string(model.method) << ", trained over "
            << util::human_duration(
                   static_cast<double>(model.train_end_ms -
                                       model.train_begin_ms) /
                   1000.0)
            << "\n";
  std::size_t by_class[3] = {0, 0, 0};
  for (const auto& p : model.profiles)
    ++by_class[static_cast<std::size_t>(p.cls)];
  std::cout << model.helo.size() << " event types: " << by_class[0]
            << " periodic, " << by_class[1] << " noise, " << by_class[2]
            << " silent\n";
  const auto sizes = core::sequence_size_report(model.chains);
  std::cout << model.chains.size() << " chains, mean length "
            << util::format_double(sizes.mean_size, 1) << "\n\n";
  for (const auto& c : model.chains) {
    if (!c.predictive()) continue;
    std::cout << "  [sup " << c.support << ", conf "
              << util::format_pct(c.confidence, 0) << ", lead "
              << util::human_duration(c.lead() * 10.0) << ", scope "
              << topo::to_string(c.location.scope) << "]\n";
    for (const auto& item : c.items)
      std::cout << "      " << model.helo.at(item.signal).text().substr(0, 70)
                << "\n";
  }
  return 0;
}

int cmd_predict(const Flags& flags) {
  const System system = system_flag(flags);
  const auto trace = trace_from_log(required(flags, "log"), system);
  auto model = core::load_model_file(required(flags, "model"));
  const auto max_alarms = number<std::size_t>(flags, "max-alarms", 50);

  core::PipelineConfig cfg;
  core::EngineConfig ec = cfg.engine;
  ec.dt_ms = cfg.dt_ms;
  ec.use_location = model.method != core::Method::DataMining;
  ec.raw_event_matching = model.method == core::Method::DataMining;
  core::OnlineEngine engine(trace.topology, model.chains, model.profiles, ec);

  std::size_t seen = 0, printed = 0;
  for (const auto& rec : trace.records) {
    engine.feed(rec, model.helo.classify(rec.message));
    while (seen < engine.predictions().size()) {
      const auto& p = engine.predictions()[seen++];
      if (printed >= max_alarms) continue;
      ++printed;
      std::cout << p.issue_time_ms << "\tALARM\t"
                << (p.nodes.empty() ? std::string("SYSTEM")
                                    : trace.topology.code(p.nodes.front()))
                << "\t+" << p.lead_ms / 1000 << "s\t"
                << model.helo.at(p.tmpl).text() << "\n";
    }
  }
  engine.finish(trace.t_end_ms);
  std::cerr << engine.predictions().size() << " alarms ("
            << engine.stats().duplicates_suppressed
            << " duplicates suppressed), mean analysis window "
            << util::format_double(engine.stats().mean_analysis_ms(), 1)
            << " ms\n";
  return 0;
}

int cmd_serve(const Flags& flags) {
  const System system = system_flag(flags);
  serve::ServiceConfig scfg;  // zero-cost model: latency is measured, not simulated
  scfg.overflow = policy_flag(flags);
  const auto trace = trace_from_log(required(flags, "log"), system);
  const auto model = core::load_model_file(required(flags, "model"));
  const auto max_alarms = number<std::size_t>(flags, "max-alarms", 50);

  scfg.shards = shards_flag(flags, scfg.shards);
  scfg.engine.use_location = model.method != core::Method::DataMining;
  scfg.engine.raw_event_matching = model.method == core::Method::DataMining;
  serve::PredictionService service(trace.topology, model, scfg);

  serve::ReplayOptions ro;
  ro.speedup = speedup_flag(flags);
  const serve::TraceReplayer replayer(trace, ro);

  // Feed from a producer thread; stream alarms from this one.
  std::atomic<bool> done{false};
  std::size_t accepted = 0;
  std::thread producer([&] {
    accepted = replayer.replay_into(service);
    done.store(true);
  });

  std::vector<core::Prediction> alarms;
  std::size_t printed = 0;
  const auto print_alarms = [&] {
    service.poll_alarms(alarms);
    for (const auto& p : alarms) {
      if (printed >= max_alarms) break;
      ++printed;
      std::cout << p.issue_time_ms << "\tALARM\t"
                << (p.nodes.empty() ? std::string("SYSTEM")
                                    : trace.topology.code(p.nodes.front()))
                << "\t+" << p.lead_ms / 1000 << "s\t"
                << model.helo.at(p.tmpl).text() << "\n";
    }
    alarms.clear();
  };
  while (!done.load()) {
    print_alarms();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  producer.join();
  service.finish(trace.t_end_ms);
  print_alarms();
  std::cerr << accepted << " records accepted\n";

  std::cerr << service.metrics_report();
  std::cerr << service.predictions().size() << " alarms total across "
            << service.shards() << " shards\n";
  return 0;
}

int cmd_chaos(const Flags& flags) {
  const System system = system_flag(flags);
  serve::ServiceConfig scfg;
  scfg.overflow = policy_flag(flags);
  const auto trace = trace_from_log(required(flags, "log"), system);
  const auto model = core::load_model_file(required(flags, "model"));
  const auto seed = number<std::uint64_t>(flags, "seed", 42);
  const auto plan = faultinject::FaultPlan::parse(
      flags.count("plan") ? flags.at("plan") : std::string("all"), seed);

  scfg.shards = shards_flag(flags, scfg.shards);
  scfg.engine.use_location = model.method != core::Method::DataMining;
  scfg.engine.raw_event_matching = model.method == core::Method::DataMining;
  // A soak wants the watchdog to bite within the run, not after 2 s of
  // real time: scan fast, trip fast.
  scfg.watchdog_interval_ms = 20;
  scfg.watchdog_deadline_ms = 250;
  scfg.faults = &plan;
  serve::PredictionService service(trace.topology, model, scfg);

  serve::ReplayOptions ro;
  ro.speedup = speedup_flag(flags);
  // Under the shed policy the bounded retry exercises the full degradation
  // surface; block/drop-oldest never refuse, so they never retry.
  ro.max_retries = 3;
  const serve::TraceReplayer replayer(trace, ro);

  faultinject::FaultInjector injector(plan);
  std::cerr << "chaos plan (seed " << seed << "): " << plan.to_string()
            << "\n";
  const std::size_t accepted = replayer.replay_into(service, &injector);
  service.finish(trace.t_end_ms);

  const auto& is = injector.stats();
  std::cerr << "injector    seen " << is.seen << ", delivered " << is.delivered
            << ", dropped " << is.dropped << ", duplicated " << is.duplicated
            << ", corrupted " << is.corrupted << ", reordered " << is.reordered
            << ", skewed " << is.skewed << "\n";
  std::cerr << accepted << " records accepted\n" << service.metrics_report();
  std::cerr << service.predictions().size() << " alarms total across "
            << service.shards() << " shards\n";

  const auto m = service.metrics();
  const bool tap_ok = is.seen + is.duplicated == is.delivered + is.dropped;
  if (!tap_ok) {
    std::cerr << "FAIL: injector conservation violated (seen + duplicated != "
                 "delivered + dropped)\n";
    return 1;
  }
  if (!m.records_conserved()) {
    std::cerr << "FAIL: record conservation violated: ingested " << m.ingested
              << " != processed " << m.records_out << " + quarantined "
              << m.quarantined << " + shed " << m.shed << "\n";
    return 1;
  }
  std::cerr << "OK: conservation holds (ingested " << m.ingested
            << " == processed " << m.records_out << " + quarantined "
            << m.quarantined << " + shed " << m.shed << ")\n";
  return 0;
}

std::vector<std::size_t> parse_shard_list(const std::string& s) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(parse_number<std::size_t>(
        "shards", s.substr(pos, comma - pos), 1, kMaxShards));
    pos = comma + 1;
  }
  if (out.empty()) throw std::runtime_error("empty --shards list");
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Field-for-field equality of two deterministic prediction streams.
bool predictions_equal(const std::vector<core::Prediction>& a,
                       const std::vector<core::Prediction>& b,
                       std::string* why) {
  if (a.size() != b.size()) {
    *why = "count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.trigger_time_ms != y.trigger_time_ms ||
        x.issue_time_ms != y.issue_time_ms ||
        x.predicted_time_ms != y.predicted_time_ms || x.tmpl != y.tmpl ||
        x.nodes != y.nodes || x.scope != y.scope ||
        x.chain_id != y.chain_id || x.confidence != y.confidence ||
        x.lead_ms != y.lead_ms) {
      *why = "prediction " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

int cmd_mine(const Flags& flags) {
  const System system = system_flag(flags);
  const double days = required_number(flags, "days", kMinDays, kMaxDays);
  const auto seed = number<std::uint64_t>(flags, "seed", 2012);
  const bool check = switch_on(flags, "check");
  const auto publish_every = number<std::size_t>(flags, "publish-every", 2048);
  const auto chaos_seed = number<std::uint64_t>(flags, "chaos-seed", 42);
  const auto shard_list =
      flags.count("shards") ? parse_shard_list(flags.at("shards"))
                            : std::vector<std::size_t>{1, 2, 4, 8};

  // Regenerate the campaign (deterministic in system/days/seed) — the
  // online≡batch comparison needs the exact record stream, not a log file
  // whose parse could diverge.
  auto scenario = scenario_for(system, seed, days);
  const auto trace = scenario.generator.generate(scenario.config);

  const mining::MinerConfig mcfg;

  // ---- Batch reference leg: classify the trace in order with a fresh
  // incremental classifier, sort canonically, fold through a fresh miner
  // with the same publish cadence.
  helo::TemplateMiner classifier;
  std::vector<serve::ClassifiedEvent> events;
  events.reserve(trace.records.size());
  for (const auto& rec : trace.records)
    events.push_back({rec.time_ms, rec.node_id,
                      classifier.classify(rec.message),
                      static_cast<std::uint8_t>(rec.severity)});
  std::stable_sort(events.begin(), events.end(), mining::canonical_less);
  const auto batch =
      mining::batch_mine(events, mcfg, publish_every, classifier);
  std::cout << "batch       model " << hex64(batch.model_digest)
            << "  stream " << hex64(batch.publish_digest) << "  ("
            << events.size() << " events, " << batch.publishes
            << " publishes, " << batch.model.chains.size() << " chains)\n";

  bool ok = true;
  const auto run_online = [&](std::size_t shards,
                              const faultinject::FaultPlan* plan,
                              const std::string& label) {
    mining::MinerServiceConfig cfg;
    cfg.serve.shards = shards;
    cfg.miner = mcfg;
    cfg.publish_every = publish_every;
    if (plan != nullptr) {
      cfg.serve.faults = plan;
      cfg.serve.watchdog_interval_ms = 20;
      cfg.serve.watchdog_deadline_ms = 250;
    }
    mining::MinerService ms(trace.topology, cfg);
    const serve::TraceReplayer replayer(trace);
    replayer.replay_into(ms.service());
    ms.finish(trace.t_end_ms);
    const bool leg_ok = ms.final_digest() == batch.model_digest &&
                        ms.publish_stream_digest() == batch.publish_digest &&
                        ms.folded() == events.size() &&
                        ms.publishes() == batch.publishes;
    const auto m = ms.service().metrics();
    std::cout << label << "  model " << hex64(ms.final_digest())
              << "  stream " << hex64(ms.publish_stream_digest()) << "  ("
              << ms.folded() << " events, " << ms.publishes()
              << " publishes, " << m.model_swaps << " swaps)  "
              << (leg_ok ? "MATCH" : "MISMATCH") << "\n";
    ok = ok && leg_ok;
  };

  for (const std::size_t n : shard_list) {
    char label[32];
    std::snprintf(label, sizeof label, "online %2zu", n);
    run_online(n, nullptr, label);
  }

  if (flags.count("plan") && flags.at("plan") != "none") {
    const auto plan =
        faultinject::FaultPlan::parse(flags.at("plan"), chaos_seed);
    for (const auto& spec : plan.specs())
      if (spec.kind != faultinject::FaultKind::kStallShard &&
          spec.kind != faultinject::FaultKind::kFailWorker)
        throw std::runtime_error(
            "mine --plan accepts serve-side faults only (stall/failworker): "
            "record-mutating faults legitimately change the mined stream");
    run_online(shard_list.back(), &plan, "chaos    ");
  }

  // ---- Prediction-equality leg: serving the final model THROUGH the hub
  // must predict identically to serving it directly — the hub indirection
  // is transparent. (Live-swap output is inherently timing-dependent, so
  // the witness is a static hub, pre-published before any feed.)
  {
    serve::ServiceConfig scfg;
    scfg.shards = shard_list.back();
    scfg.engine.use_location = false;
    scfg.engine.raw_event_matching = true;

    serve::ModelHub hub(std::make_unique<const core::ModelState>(
        core::ModelState::build({}, {})));
    hub.publish(std::make_unique<const core::ModelState>(
        core::ModelState::build(batch.model.chains, batch.model.profiles)));
    core::OfflineModel hollow = batch.model;  // classifier only; the rules
    hollow.chains.clear();                    // must come from the hub
    hollow.profiles.clear();

    serve::ServiceConfig acfg = scfg;
    acfg.hub = &hub;
    serve::PredictionService via_hub(trace.topology, hollow, acfg);
    serve::TraceReplayer(trace).replay_into(via_hub);
    via_hub.finish(trace.t_end_ms);

    serve::PredictionService direct(trace.topology, batch.model, scfg);
    serve::TraceReplayer(trace).replay_into(direct);
    direct.finish(trace.t_end_ms);

    std::string why;
    const bool pred_ok =
        predictions_equal(via_hub.predictions(), direct.predictions(), &why);
    std::cout << "predict     hub " << via_hub.predictions().size()
              << " alarms vs direct " << direct.predictions().size()
              << "  " << (pred_ok ? "MATCH" : "MISMATCH (" + why + ")")
              << "\n";
    ok = ok && pred_ok;
  }

  if (flags.count("out")) {
    core::save_model_file(flags.at("out"), batch.model);
    std::cout << "wrote model -> " << flags.at("out") << "\n";
  }
  std::cout << (ok ? "OK: online mining == batch mining"
                   : "FAIL: online/batch divergence")
            << "\n";
  return check && !ok ? 1 : 0;
}

/// Eq. 4 interval at an MTTF estimate, re-derived per checkpoint cost so
/// one recorded est_mttf stream prices every Table IV cost point.
double interval_at(const advisor::AdvisorConfig& ad, double C,
                   double mttf_min) {
  return advisor::interval_for_cost(ad, C, mttf_min);
}

int cmd_advise(const Flags& flags) {
  const System system = system_flag(flags);
  const double days = required_number(flags, "days", kMinDays, kMaxDays);
  const auto seed = number<std::uint64_t>(flags, "seed", 2012);
  const auto chaos_seed = number<std::uint64_t>(flags, "chaos-seed", 42);
  const bool check = switch_on(flags, "check");
  advisor::AdvisorServiceConfig acfg;
  acfg.serve.overflow = policy_flag(flags);
  auto scenario = scenario_for(system, seed, days);
  const auto trace = scenario.generator.generate(scenario.config);
  const auto model = core::load_model_file(required(flags, "model"));
  const auto plan = faultinject::FaultPlan::parse(
      flags.count("plan") ? flags.at("plan") : std::string("none"),
      chaos_seed);

  acfg.serve.shards = shards_flag(flags, acfg.serve.shards);
  acfg.serve.engine.use_location = model.method != core::Method::DataMining;
  acfg.serve.engine.raw_event_matching =
      model.method == core::Method::DataMining;
  // Same fast watchdog as a chaos soak: bite within the run.
  acfg.serve.watchdog_interval_ms = 20;
  acfg.serve.watchdog_deadline_ms = 250;
  acfg.serve.faults = &plan;
  advisor::AdvisorConfig& ad = acfg.advisor;
  // Probabilities in [0, 1]; the two knobs whose negative values select a
  // documented fallback (AdvisorConfig) take [-1, 1].
  ad.precision = number(flags, "precision", ad.precision, 0.0, 1.0);
  ad.recall = number(flags, "recall", ad.recall, 0.0, 1.0);
  ad.gap_alpha = number(flags, "gap-alpha", ad.gap_alpha, -1.0, 1.0);
  ad.directive_confidence =
      number(flags, "confidence", ad.directive_confidence, 0.0, 1.0);
  ad.mttf_hysteresis =
      number(flags, "hysteresis", ad.mttf_hysteresis, 0.0, 100.0);
  ad.interval_recall =
      number(flags, "interval-recall", ad.interval_recall, -1.0, 1.0);

  serve::ReplayOptions ro;
  ro.speedup = speedup_flag(flags);
  ro.max_retries = 3;

  // -- calibration pass: alarm episodes per failure on the training window
  // The estimator's alarm-gap -> MTTF ratio is measurable wherever ground
  // truth is known, and the training window is exactly that (the deployed
  // model's realised alarm rate routinely misses its offline
  // precision/recall numbers). Replays only the training records, chaos
  // off, so the calibrated constant depends on (trace, seed, model) alone.
  if (!flags.count("episodes-per-failure")) {
    simlog::Trace train = trace;
    train.records.erase(
        std::find_if(train.records.begin(), train.records.end(),
                     [&](const simlog::LogRecord& r) {
                       return r.time_ms >= model.train_end_ms;
                     }),
        train.records.end());
    advisor::AdvisorServiceConfig ccfg = acfg;
    ccfg.serve.faults = nullptr;
    advisor::AdvisorService calib(train.topology, model, ccfg);
    const serve::TraceReplayer crep(train, ro);
    crep.replay_into(calib.service(), nullptr);
    calib.finish(model.train_end_ms);
    const auto cs = calib.schedule();
    std::uint64_t episodes = 0;
    for (const auto& p : cs.partitions)
      if (p.partition >= 0) episodes += p.episodes;
    std::uint64_t f_train = 0;
    for (const auto& f : trace.faults)
      if (f.fail_time_ms < model.train_end_ms && f.initiating_node >= 0)
        ++f_train;
    if (episodes > 0 && f_train > 0) {
      ad.episodes_per_failure =
          static_cast<double>(episodes) / static_cast<double>(f_train);
      std::cerr << "calibration: " << episodes << " training episodes / "
                << f_train << " training failures -> episodes_per_failure "
                << ad.episodes_per_failure << "\n";
    }
  } else {
    ad.episodes_per_failure =
        required_number(flags, "episodes-per-failure", 0.0, 1e6);
  }

  advisor::AdvisorService svc(trace.topology, model, acfg);

  const serve::TraceReplayer replayer(trace, ro);
  faultinject::FaultInjector injector(plan);
  if (!plan.empty())
    std::cerr << "chaos plan (seed " << chaos_seed
              << "): " << plan.to_string() << "\n";

  const std::size_t accepted = replayer.replay_into(
      svc.service(), plan.empty() ? nullptr : &injector);
  svc.finish(trace.t_end_ms);
  svc.advisor().score(trace.faults, model.train_end_ms);

  const auto sched = svc.schedule();
  std::cerr << accepted << " records accepted\n"
            << svc.service().metrics_report();
  std::cerr << sched.to_string();
  {
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(sched.digest()));
    std::cout << "schedule digest " << digest << " (advisor dropped "
              << svc.dropped() << ")\n";
  }

  const auto m = svc.service().metrics();
  if (!m.records_conserved()) {
    std::cerr << "FAIL: record conservation violated: ingested " << m.ingested
              << " != processed " << m.records_out << " + quarantined "
              << m.quarantined << " + shed " << m.shed << "\n";
    return 1;
  }
  if (m.advisor_events + m.advisor_dropped != m.predictions) {
    std::cerr << "FAIL: advisor conservation violated: events "
              << m.advisor_events << " + dropped " << m.advisor_dropped
              << " != predictions " << m.predictions << "\n";
    return 1;
  }

  // -- realised waste: adaptive schedule vs static optimum ----------------
  // Evaluation window = everything after training; per-partition failures
  // from ground truth; the Table IV checkpoint cost points, R=5, D=1.
  const auto& topo = trace.topology;
  const std::int32_t npm =
      std::max(1, topo.nodes_per_nodecard() * topo.nodecards_per_midplane());
  const std::int32_t nparts = std::max(1, topo.total_nodes() / npm);
  const double t0 = static_cast<double>(model.train_end_ms) / 60000.0;
  const double t1 = static_cast<double>(trace.t_end_ms) / 60000.0;

  std::vector<std::vector<double>> fails(
      static_cast<std::size_t>(nparts));
  std::size_t total_fails = 0;
  for (const auto& f : trace.faults) {
    if (f.fail_time_ms < model.train_end_ms) continue;
    // System-scope faults (no midplane) sit outside the per-partition
    // waste sweep, as do the advisor's system-partition (-1) directives.
    if (f.initiating_node < 0) continue;
    const std::int32_t p = f.initiating_node / npm;
    if (p >= nparts) continue;
    fails[static_cast<std::size_t>(p)].push_back(
        static_cast<double>(f.fail_time_ms) / 60000.0);
    ++total_fails;
  }
  for (auto& v : fails) std::sort(v.begin(), v.end());

  struct Point {
    const char* label;
    double C;
  };
  const Point points[] = {{"C=1min", 1.0}, {"C=10s", 1.0 / 6.0}};
  // Static baseline: Young's interval at the *realised* aggregate
  // per-partition MTTF — the best single fixed interval an operator with
  // hindsight (but no predictor) could have chosen.
  const double mttf_static =
      total_fails > 0
          ? (t1 - t0) * static_cast<double>(nparts) /
                static_cast<double>(total_fails)
          : 1.0e9;

  bool adaptive_wins = true;
  for (const Point& pt : points) {
    ckpt::CkptParams prm;
    prm.C = pt.C;
    prm.R = 5.0;
    prm.D = 1.0;
    prm.mttf = mttf_static;
    const double t_static = ckpt::young_interval(prm);

    double wall_a = 0.0, useful_a = 0.0, wall_s = 0.0, useful_s = 0.0;
    std::uint64_t proactive = 0;
    for (std::int32_t p = 0; p < nparts; ++p) {
      ckpt::ScheduleSimConfig sc;
      sc.params = prm;
      sc.t_begin = t0;
      sc.t_end = t1;
      sc.interval = interval_at(ad, pt.C, ad.params.mttf);
      for (const auto& u : sched.updates) {
        if (u.partition != p) continue;
        const double ut = static_cast<double>(u.time_ms) / 60000.0;
        const double iv = interval_at(ad, pt.C, u.est_mttf_min);
        if (ut <= t0)
          sc.interval = iv;  // learned during training: start there
        else
          sc.changes.push_back({ut, iv});
      }
      for (const auto& d : sched.directives) {
        if (d.partition != p || d.issue_time_ms < model.train_end_ms)
          continue;
        sc.proactive.push_back(
            static_cast<double>(d.issue_time_ms) / 60000.0);
      }
      sc.failures = fails[static_cast<std::size_t>(p)];
      const auto ra = ckpt::simulate_schedule(sc);
      wall_a += ra.wall_time;
      useful_a += ra.useful_work;
      proactive += ra.proactive_taken;

      ckpt::ScheduleSimConfig ss;
      ss.params = prm;
      ss.t_begin = t0;
      ss.t_end = t1;
      ss.interval = t_static;
      ss.failures = fails[static_cast<std::size_t>(p)];
      const auto rs = ckpt::simulate_schedule(ss);
      wall_s += rs.wall_time;
      useful_s += rs.useful_work;
    }
    const double waste_a = wall_a > 0.0 ? 1.0 - useful_a / wall_a : 0.0;
    const double waste_s = wall_s > 0.0 ? 1.0 - useful_s / wall_s : 0.0;
    const double gain =
        waste_s > 0.0 ? (waste_s - waste_a) / waste_s * 100.0 : 0.0;
    char line[160];
    std::snprintf(line, sizeof line,
                  "%s: static waste %.3f%% (T=%.1f min), adaptive waste "
                  "%.3f%%, gain %.1f%% (%llu proactive ckpts)\n",
                  pt.label, waste_s * 100.0, t_static, waste_a * 100.0, gain,
                  static_cast<unsigned long long>(proactive));
    std::cout << line;
    if (waste_a >= waste_s) adaptive_wins = false;
  }
  std::cout << total_fails << " eval-window failures across " << nparts
            << " partitions (";
  for (std::int32_t p = 0; p < nparts; ++p)
    std::cout << (p ? " " : "") << fails[static_cast<std::size_t>(p)].size();
  std::cout << "); directives " << m.directives << " (hits " << sched.hits
            << ", misses " << sched.misses << ")\n";

  if (check && !adaptive_wins) {
    std::cerr << "FAIL: adaptive schedule did not beat the static baseline "
                 "at every cost point\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  struct Command {
    std::string_view name;
    int (*run)(const std::map<std::string, std::string>&);
    std::vector<std::string_view> flags;  ///< every flag `run` reads
  };
  const Command commands[] = {
      {"generate", cmd_generate, {"system", "days", "seed", "out"}},
      {"train", cmd_train, {"system", "log", "method", "train-days", "out"}},
      {"inspect", cmd_inspect, {"model"}},
      {"predict", cmd_predict, {"system", "log", "model", "max-alarms"}},
      {"serve", cmd_serve,
       {"system", "log", "model", "shards", "speedup", "policy",
        "max-alarms"}},
      {"chaos", cmd_chaos,
       {"system", "log", "model", "plan", "seed", "shards", "policy",
        "speedup"}},
      {"advise", cmd_advise,
       {"system", "days", "model", "seed", "shards", "plan", "chaos-seed",
        "policy", "speedup", "check", "precision", "recall",
        "interval-recall", "confidence", "hysteresis", "gap-alpha",
        "episodes-per-failure"}},
      {"mine", cmd_mine,
       {"system", "days", "seed", "shards", "publish-every", "plan",
        "chaos-seed", "out", "check"}},
  };
  const auto it = std::find_if(std::begin(commands), std::end(commands),
                               [&](const Command& c) { return c.name == cmd; });
  if (it == std::end(commands)) return usage();
  try {
    return it->run(parse_flags(argc, argv, 2, it->flags));
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
