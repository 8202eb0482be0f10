// elsa-serve: the streaming prediction service (paper Fig 2's online half,
// deployed for real). Producers — syslog taps, the trace replayer, test
// harnesses — submit raw records from any number of threads; the service
// classifies them against the frozen offline model, routes them through the
// lock-free ShardRouter, and pushes each straight into its shard's
// lock-free ingest ring. Alarms stream out through a polling ring as they
// are issued; the deterministic merged list is available after finish().
//
//   producers -> [classify] -> [route] -> per-shard SpscRing -> shard worker
//                                              |                   |
//                                         ServeMetrics <-----------+
//                                                 alarm tap -> shared SpscRing
//
// Everything up to the ring insertion happens on the *producer's* thread:
// the model is frozen while serving (classify_const never mutates), the
// router is a pure function, and the rings are lock-free — so the submit
// path holds no mutex and shares no cache line between shards. There is no
// dispatcher hop; each record crosses threads exactly once. (The old design
// funneled every producer through one mutex-guarded MPMC ring and a single
// dispatcher thread, which made throughput *fall* as shards were added.)
// Messages never cross the ring — only (time, node, template) does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "elsa/online.hpp"
#include "elsa/pipeline.hpp"
#include "serve/metrics.hpp"
#include "serve/sharded_engine.hpp"
#include "serve/spsc_ring.hpp"
#include "serve/tap.hpp"

namespace elsa::serve {

/// What a blocking submit does when the target shard's ring is full.
/// try_submit always sheds (that is its contract); submit consults this
/// policy.
enum class OverflowPolicy : std::uint8_t {
  kBlock,       ///< wait for space (backpressure onto the producer)
  kDropOldest,  ///< evict the oldest queued record to admit the new one
  kShed,        ///< refuse the new record, counted in metrics
};

/// Fate of one submit attempt. Conservation: every attempt except kClosed
/// increments `ingested` and exactly one of the queued/quarantined/shed
/// legs; kClosed attempts are invisible to the metrics.
enum class SubmitResult : std::uint8_t {
  kQueued,       ///< accepted into its shard's ingest ring
  kQuarantined,  ///< malformed record set aside (validator rejected it)
  kShed,         ///< lost to overflow under kShed / non-blocking submit
  kClosed,       ///< service already finished; nothing counted
};

struct ServiceConfig {
  std::size_t shards = 4;
  /// Total ingest capacity, in records, split evenly across the per-shard
  /// rings (each shard gets at least two batches' worth, and the ring
  /// rounds its share up to a power of two).
  std::size_t ingest_capacity = 8192;
  /// Most records a shard worker drains from its ring in one batched pop.
  std::size_t batch = 64;
  /// What submit() does on a full shard ring (try_submit always sheds).
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Reject malformed records (node id outside the topology, negative
  /// timestamp) into quarantine instead of feeding them to the engines.
  /// The serving default; chaos tests rely on it to survive kCorrupt.
  bool validate = true;
  /// Watchdog scan interval for the sharded engine; 0 disables it.
  std::int64_t watchdog_interval_ms = 100;
  /// No-progress deadline before a shard counts as unhealthy.
  std::int64_t watchdog_deadline_ms = 2000;
  /// Pin each shard worker to one CPU (best-effort, Linux only; see
  /// ShardOptions::pin_workers).
  bool pin_workers = false;
  /// Injected serve-side faults (stall / worker kill); null = none. Must
  /// outlive the service.
  const faultinject::FaultPlan* faults = nullptr;
  /// Watchdog time source override (tests / chaos); null = real time.
  const faultinject::FaultClock* clock = nullptr;
  /// Wait-free per-shard prediction observer (serve/tap.hpp), handed to
  /// the sharded engine after the service's own alarm feed; null = none.
  /// The checkpoint advisor (src/advisor) registers through this. Must
  /// outlive the service.
  Tap<core::Prediction>* tap = nullptr;
  /// Incremental HELO classifier (see helo.hpp). Null = the offline
  /// model's frozen classifier (classify_const). When set, submits
  /// classify through its *mutating* path, so unseen message shapes learn
  /// fresh template ids on the fly instead of collapsing onto the one
  /// reserved "unknown" id. The mutating classifier is not internally
  /// synchronized: all submits must come from ONE producer thread (the
  /// replayer/`elsa mine` contract). Must outlive the service.
  helo::TemplateMiner* live_classifier = nullptr;
  /// Live rule-model hub handed down to the sharded engine (see
  /// serve/model_handle.hpp); null = serve the construction-time model
  /// forever. Must outlive the service.
  ModelHub* hub = nullptr;
  /// Classified-event observer handed down to the sharded engine (the
  /// incremental miner's intake; see serve/tap.hpp); null = none. Must
  /// outlive the service.
  EventTap* event_tap = nullptr;
  core::EngineConfig engine;

  /// Zeroes the engine's simulated analysis-cost model: the serving layer
  /// measures real latency instead of simulating 2012 hardware, and a
  /// zero-cost model is what makes sharded output identical to a
  /// single-engine run (per-shard simulated queues would diverge).
  ServiceConfig() { engine.cost = core::AnalysisCostModel{0.0, 0.0, 0.0}; }
};

class PredictionService {
 public:
  /// `model` supplies the classifier, chains and signal profiles; it must
  /// outlive the service and must not be mutated while serving.
  PredictionService(const topo::Topology& topo,
                    const core::OfflineModel& model, ServiceConfig cfg = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Classify, route and enqueue one record; a full shard ring is handled
  /// per the configured OverflowPolicy (default: block for backpressure).
  /// Thread-safe. False once the service is finished.
  bool submit(const simlog::LogRecord& rec);

  /// Classify, route and enqueue one record; sheds it (counted in the
  /// metrics) when its shard's ring is full. Thread-safe. False if shed,
  /// quarantined or finished.
  bool try_submit(const simlog::LogRecord& rec);

  /// Full-fidelity submit: says *which* fate the record met. `blocking`
  /// selects between submit()'s policy path and try_submit()'s shed path.
  /// Thread-safe.
  SubmitResult submit_result(const simlog::LogRecord& rec, bool blocking);

  /// Count one producer-side re-submission after a kShed result (the
  /// replayer's bounded retry loop reports through this).
  void note_retry() { metrics_.on_retry(); }

  /// The most recent quarantined records (bounded sample, newest last).
  /// For diagnostics: what kind of malformed input is arriving?
  std::vector<simlog::LogRecord> quarantined_sample() const
      ELSA_EXCLUDES(q_mu_);

  /// Stop intake, drain everything, close trailing buckets through
  /// `t_end_ms`, freeze the metrics clock. Idempotent.
  void finish(std::int64_t t_end_ms);

  /// Drain alarms issued since the last poll into `out` (appended);
  /// returns how many. Callable anytime from any one consumer thread.
  /// Streaming view only: alarms that find the ring full are dropped from
  /// it (the merged list after finish() is always complete).
  std::size_t poll_alarms(std::vector<core::Prediction>& out);

  /// Canonical deterministically-merged predictions (after finish()).
  const std::vector<core::Prediction>& predictions() const {
    return sharded_->predictions();
  }

  /// Aggregated engine statistics (after finish()).
  const core::EngineStats& engine_stats() const { return sharded_->stats(); }

  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  std::string metrics_report() const { return metrics_.text_report(); }
  const ServeMetrics& raw_metrics() const { return metrics_; }
  /// Mutable access for cooperating layers (the checkpoint advisor mirrors
  /// its counters into this scrape). Hooks are lock-free; safe anytime.
  ServeMetrics& raw_metrics() { return metrics_; }

  std::size_t shards() const { return sharded_->shards(); }

  /// Shard a record would route to (the bench partitions its producer
  /// threads with this; pure function, callable from any thread).
  std::size_t shard_of(std::int32_t node_id) const {
    return sharded_->shard_of(node_id);
  }

  /// Current per-shard ingest ring depths (racy monitoring snapshot).
  std::vector<std::size_t> shard_depths() const {
    return sharded_->shard_depths();
  }

  /// Records processed so far, per shard (router-imbalance monitoring).
  std::vector<std::uint64_t> shard_processed() const {
    return sharded_->shard_processed();
  }

  /// Template id the service assigns to `message` (frozen-model
  /// classification; unseen messages map to one reserved "unknown" id).
  std::uint32_t classify(std::string_view message) const;

 private:
  /// Structural sanity of one record: node id inside the topology (or the
  /// system-scope sentinel -1), non-negative timestamp.
  bool valid(const simlog::LogRecord& rec) const;

  /// The streaming alarm view: one more prediction tap, offering into one
  /// ring that every shard shares (the ring's slot protocol takes several
  /// producers). Lossy: a full ring drops the alarm and counts it.
  struct AlarmFeed final : Tap<core::Prediction> {
    static constexpr std::size_t kCapacity = 4096;
    SpscRing<core::Prediction> ring{kCapacity};
    void publish(std::size_t, const core::Prediction& p) override {
      ring.offer(p);
    }
  };

  // Thread roles: `classifier_` and `unknown_tmpl_` are immutable while
  // serving (frozen model); `metrics_` is internally synchronized and
  // `alarms_` lock-free; the ShardedEngine's rings are lock-free and fed
  // directly by submitting threads. `finished_` is control-plane state:
  // finish() must be called from one controlling thread (it joins the shard
  // workers), matching the destructor's contract.
  const helo::TemplateMiner* classifier_;
  /// Mutating incremental classifier; non-null only under the
  /// single-producer submit contract (ServiceConfig::live_classifier).
  helo::TemplateMiner* live_classifier_ = nullptr;
  std::uint32_t unknown_tmpl_;
  std::int32_t total_nodes_ = 0;
  OverflowPolicy overflow_ = OverflowPolicy::kBlock;
  bool validate_ = true;
  ServeMetrics metrics_;
  AlarmFeed alarms_;  ///< before sharded_: workers publish until it is gone
  std::unique_ptr<ShardedEngine> sharded_;
  bool finished_ = false;  ///< controlling thread only

  /// Bounded ring of the newest quarantined records (multi-producer).
  static constexpr std::size_t kQuarantineSample = 32;
  // Rank kService (top of the serving hierarchy): nothing else may be held
  // when it is taken, and submit_result() closes its scope before touching
  // the shard rings.
  mutable util::Mutex q_mu_{"serve::PredictionService::q_mu_",
                            util::lockrank::kService};
  std::vector<simlog::LogRecord> quarantine_ ELSA_GUARDED_BY(q_mu_);
  std::size_t q_next_ ELSA_GUARDED_BY(q_mu_) = 0;
};

}  // namespace elsa::serve
