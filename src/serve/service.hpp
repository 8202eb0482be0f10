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

/// Fate of one submit attempt. Conservation: every attempt except kClosed
/// increments `ingested` and exactly one of the queued/quarantined/shed
/// legs; kClosed attempts are invisible to the metrics.
enum class SubmitResult : std::uint8_t {
  kQueued,       ///< accepted into its shard's ingest ring
  kQuarantined,  ///< malformed record set aside (validator rejected it)
  kShed,         ///< lost to overflow under kShed / non-blocking submit
  kClosed,       ///< service already finished; nothing counted
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

  /// Full-fidelity submit: says *which* fate the record met. `blocking`
  /// selects submit()'s policy path; non-blocking always sheds a record
  /// whose shard ring is full. Thread-safe.
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
