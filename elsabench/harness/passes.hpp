// The timed passes: set-up, the serving passes (closed and open loop), the
// online-mining pass and the offline-training pass. Each drives ELSA only
// through its public API, the way `elsa advise`, `elsa mine` and
// `elsa train` do, times it from outside and returns what the output
// checks need. With a Tracer, each also records spans around its calls
// into ELSA.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advisor/service.hpp"
#include "common.hpp"
#include "inputs.hpp"
#include "mining/miner.hpp"
#include "mining/service.hpp"

namespace elsabench {

/// Shards of the serving passes: producer plus two workers stay below the
/// core count of a 4-vCPU box.
inline constexpr std::size_t kServeShards = 2;
/// Mean offered load of the open-loop pass, records/s.
inline constexpr double kOpenRate = 200'000.0;
/// Miner publish cadence, in folded events.
inline constexpr std::size_t kPublishEvery = 4096;

/// What set-up produces: the parsed log and the loaded model.
struct Ready {
  elsa::simlog::Trace trace;
  elsa::core::OfflineModel model;
  /// First record at or after the model's training end: the serving
  /// passes replay [window_begin, records.size()).
  std::size_t window_begin = 0;
};

elsa::advisor::AdvisorServiceConfig serve_config(
    const elsa::core::OfflineModel& model);
elsa::mining::MinerServiceConfig mine_config();

/// One set-up as timed: parse the log, load the model, construct the
/// advisor and miner services. Returns seconds until both were ready.
double set_up(const Campaign& c, Ready& out, Tracer* tracer);

/// Operations attempted and failed, and whether every output check held.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// One output check (one operation); prints a FAIL line when it fails.
  void check(bool ok, const std::string& what);
};

struct ServeResult {
  std::size_t records = 0;
  double seconds = 0.0;       ///< first submit until finish() returned
  std::int64_t cpu_ns = 0;    ///< process CPU over the same span
  double finish_ms = 0.0;
  std::uint64_t prediction_digest = 0;
  std::uint64_t schedule_digest = 0;
  /// Shed, quarantined or never processed.
  std::uint64_t not_processed = 0;
  std::uint64_t advisor_dropped = 0;
  bool conserved = false;
  double imbalance = 0.0;  ///< max/mean records per shard
  std::vector<elsa::core::Prediction> predictions;
};

/// Closed loop: one producer submits records [begin, end) as fast as
/// backpressure allows into a fresh advisor service.
ServeResult serve_closed(const Ready& r, std::size_t begin, std::size_t end,
                         Tracer* tracer);

/// Fixed before any open-loop pass: when each window record is due, and
/// the order in which each shard will process them.
struct OpenPlan {
  std::vector<std::int64_t> due;  ///< ns from pass start, per window record
  std::vector<std::vector<std::uint32_t>> order;  ///< per shard
  std::vector<std::int64_t> done;  ///< processing instant, 0 = not processed
  std::vector<std::int64_t> late;  ///< submit start minus due instant, ns
};
OpenPlan make_open_plan(const Ready& r);

struct OpenResult {
  ServeResult serve;
  std::int64_t base_ns = 0;  ///< instant the due offsets count from
  std::vector<std::int64_t> backlog;  ///< sampled: due but not processed
  std::vector<std::int64_t> depths;   ///< sampled shard ring depths
  bool backlog_grew = false;
};

/// Open loop at kOpenRate: each window record is submitted at its due
/// instant (the producer spins to it), and its latency runs from the due
/// instant to its processing on the shard worker. Appends one latency per
/// record to `latency_ns` (INT64_MAX for a record never processed).
OpenResult serve_open(const Ready& r, OpenPlan& plan,
                      std::vector<std::int64_t>& latency_ns, Tracer* tracer);

struct MineResult {
  std::size_t records = 0;
  double seconds = 0.0;  ///< first submit until finish() returned
  double finish_ms = 0.0;
  std::uint64_t model_digest = 0;
  std::uint64_t publish_digest = 0;
  std::uint64_t publishes = 0;
  std::uint64_t folded = 0;
  std::uint64_t swaps = 0;
  std::uint64_t not_processed = 0;
  bool conserved = false;
};

/// One producer submits records [0, end) into a fresh miner service.
MineResult mine_pass(const Ready& r, std::size_t end, Tracer* tracer);

/// The `elsa mine --check` oracle: classify the log in order with a fresh
/// incremental classifier, sort canonically, batch-mine. `events` receives
/// the sorted classified stream.
elsa::mining::BatchMineResult mine_oracle(
    const Ready& r, std::vector<elsa::serve::ClassifiedEvent>& events);

struct TrainResult {
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

/// core::train_offline (hybrid) on the log's training window.
TrainResult train_pass(const Ready& r, Tracer* tracer);

/// FNV-1a over every field of a merged prediction list.
std::uint64_t prediction_digest(
    const std::vector<elsa::core::Prediction>& preds);

/// One run's shared state: its inputs, the oracles its passes are checked
/// against, the open-loop plan and the outcome tally.
struct RunState {
  Campaign campaign;
  Ready ready;
  std::vector<elsa::serve::ClassifiedEvent> events;  ///< canonical stream
  elsa::mining::BatchMineResult oracle;
  OpenPlan plan;
  Tally tally;
  std::uint64_t model_digest = 0;  ///< the input model's digest
  /// The first full serving pass's digests; every later pass must match.
  std::uint64_t serve_predictions = 0;
  std::uint64_t serve_schedule = 0;
  bool have_serve_reference = false;

  /// Set up once (traced with a tracer), then build the oracles and the
  /// open-loop plan. Untimed: the timed run repeats the set-up as samples.
  void prepare(Tracer* tracer);
  /// Short untimed slices through each system before its timed passes.
  void warm_serve();
  void warm_mine();

  /// Account a pass's records and run its output checks.
  void record(const ServeResult& s, const char* label);
  void record(const OpenResult& o);
  void record(const MineResult& m);
  void record(const TrainResult& t);

  /// Output digests for the result line (pinned for the default seed).
  std::vector<std::pair<std::string, std::string>> digests() const;
};

}  // namespace elsabench
