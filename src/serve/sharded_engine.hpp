// Topology-sharded online prediction (the serving layer's scale-out core).
//
// The record stream is partitioned by physical location: every midplane of
// the machine maps to one of N shards through the lock-free ShardRouter
// (stable hash of the midplane index; flat clusters shard by rack — their
// topology model collapses midplane onto rack), and each shard runs a
// private `elsa::core::OnlineEngine` on its own worker thread, fed through
// its own lock-free ingest ring (serve/spsc_ring.hpp). Producers route and
// push on their *own* threads — there is no dispatcher and no shared
// queue, so shards scale instead of serializing on one mutex (the
// pre-refactor inversion: 1-shard runs *beat* 4-shard runs). System-scoped
// records (node_id < 0) ride on shard 0.
//
// Why midplanes: the paper's location analysis (§V, Fig 7) shows fault
// syndromes overwhelmingly stay inside one midplane, so a midplane is the
// natural unit of stream locality — all the records a chain occurrence
// needs end up in the same shard, in their original relative order.
//
// Determinism guarantee (tested): with the simulated analysis-cost model
// zeroed (the serving default — real latency is *measured* by the metrics
// layer, not simulated), the merged prediction stream of an N-shard run is
// identical, field for field, to a single-engine run over the same
// (record, template) stream, for location-confined chains — chains whose
// learned scope is Midplane or tighter and whose signals' activity does not
// straddle shards. Two properties make this hold: per-shard processing is
// sequential FIFO (a midplane's records always land in the same shard's
// ring, in submission order), and the merge orders predictions by a total
// key (issue_time, chain_id, tmpl, trigger_time, predicted_time, nodes).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "elsa/online.hpp"
#include "faultinject/plan.hpp"
#include "serve/metrics.hpp"
#include "serve/model_handle.hpp"
#include "serve/router.hpp"
#include "serve/spsc_ring.hpp"
#include "serve/tap.hpp"
#include "util/thread_annotations.hpp"

namespace elsa::helo {
class TemplateMiner;
}  // namespace elsa::helo

namespace elsa::serve {

/// The RCU hub specialised to the rule model the shard engines read. The
/// incremental miner publishes into it; each shard worker pins it once per
/// batch (reader slot = shard index) and hot-swaps its engine when the
/// epoch moved.
using ModelHub = RcuHub<core::ModelState>;

/// What a blocking submit does when the target shard's ring is full.
enum class OverflowPolicy : std::uint8_t {
  kBlock,       ///< wait for space (backpressure onto the producer)
  kDropOldest,  ///< evict the oldest queued record to admit the new one
  kShed,        ///< refuse the new record, counted in metrics
};

/// The serving layer's one config: PredictionService reads the
/// classification and overflow fields, and hands the whole struct to the
/// ShardedEngine it builds, which reads the rest.
struct ServiceConfig {
  std::size_t shards = 4;
  /// Total ingest capacity, in records, split evenly across the per-shard
  /// rings (each shard gets at least two batches' worth, and the ring
  /// rounds its share up to a power of two).
  std::size_t ingest_capacity = 8192;
  /// Most records a worker drains from its ring in one batched pop; bounds
  /// how much one scheduling quantum of work a worker commits to before
  /// re-checking for close/faults.
  std::size_t batch = 64;
  /// What submit() does on a full shard ring.
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Watchdog scan interval; 0 disables the watchdog thread entirely. The
  /// watchdog restarts dead shard workers, counts deadline trips, and
  /// drives the degraded flag in ServeMetrics. It only observes the data
  /// path, so enabling it cannot change the merged prediction stream.
  std::int64_t watchdog_interval_ms = 100;
  /// A shard with queued/in-flight work but no progress for this long is
  /// unhealthy: one watchdog trip per stall episode, degraded mode while
  /// any shard stays unhealthy.
  std::int64_t watchdog_deadline_ms = 2000;
  /// Pin each shard worker to one CPU (round-robin over the cores the
  /// process may run on; best-effort, Linux only). Off by default: pinning
  /// helps on dedicated multi-core serving boxes and hurts on shared or
  /// oversubscribed ones.
  bool pin_workers = false;
  /// Injected serve-side faults (stall / worker kill); null = none. Must
  /// outlive the service.
  const faultinject::FaultPlan* faults = nullptr;
  /// Wait-free per-shard prediction observer (serve/tap.hpp), handed every
  /// prediction after the service's own alarm feed; null = none. The
  /// checkpoint advisor (src/advisor) registers through this. Must outlive
  /// the service.
  Tap<core::Prediction>* tap = nullptr;
  /// Incremental HELO classifier (see helo.hpp). Null = the offline
  /// model's frozen classifier (classify_const). When set, submits
  /// classify through its *mutating* path, so unseen message shapes learn
  /// fresh template ids on the fly instead of collapsing onto the one
  /// reserved "unknown" id. The mutating classifier is not internally
  /// synchronized: all submits must come from ONE producer thread (the
  /// replayer/`elsa mine` contract). Must outlive the service.
  helo::TemplateMiner* live_classifier = nullptr;
  /// Live rule-model source (see serve/model_handle.hpp); null = engines
  /// serve the construction-time model forever. When set, every shard pins
  /// the hub once per batch and hot-swaps its engine on an epoch change —
  /// no lock anywhere on the predict path. Caps shards at
  /// ModelHub::kMaxReaders. Must outlive the service.
  ModelHub* hub = nullptr;
  /// Classified-event observer on the consume side (see serve/tap.hpp);
  /// null = none. The incremental miner subscribes through this. Must
  /// outlive the service.
  EventTap* event_tap = nullptr;
  core::EngineConfig engine;

  /// Zeroes the engine's simulated analysis-cost model: the serving layer
  /// measures real latency instead of simulating 2012 hardware, and a
  /// zero-cost model is what makes sharded output identical to a
  /// single-engine run (per-shard simulated queues would diverge).
  ServiceConfig() { engine.cost = core::AnalysisCostModel{0.0, 0.0, 0.0}; }
};

/// The merge's total order on predictions: every field that can differ
/// participates, so the merged order is independent of shard count and
/// thread scheduling.
bool prediction_less(const core::Prediction& a, const core::Prediction& b);

class ShardedEngine {
 public:
  /// One classified record on the wire between a producer and a shard
  /// worker. Messages never cross the ring — only (time, node, template)
  /// plus the enqueue instant for latency accounting.
  struct Item {
    std::int64_t time_ms = 0;
    std::int32_t node_id = -1;
    std::uint32_t tmpl = 0;
    std::uint8_t severity = 0;  ///< simlog::Severity ordinal (miner tap)
    ServeMetrics::Clock::time_point enq{};
  };

  /// Every shard engine runs `cfg.engine`; `taps` are the prediction
  /// observers, each handed every prediction in list order (the service
  /// passes its alarm feed, then `cfg.tap`). Each tap must outlive the
  /// engine.
  ShardedEngine(const topo::Topology& topo, std::vector<core::Chain> chains,
                std::vector<core::SignalProfile> profiles, ServiceConfig cfg,
                std::vector<Tap<core::Prediction>*> taps = {},
                ServeMetrics* metrics = nullptr);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t shards() const { return shards_.size(); }

  /// The lock-free router (pure function; callable from any thread).
  const ShardRouter& router() const { return router_; }

  /// Shard a record routes to: stable hash of its midplane index.
  std::size_t shard_of(std::int32_t node_id) const {
    return router_.shard_of(node_id);
  }

  /// Direct access to one shard's ingest ring, for callers that need the
  /// full overflow-policy surface (push / offer / push_evict with depth
  /// and eviction feedback — PredictionService's submit path). Safe from
  /// any thread.
  SpscRing<Item>& ingest(std::size_t shard) { return shards_[shard]->queue; }

  /// Route one classified record and push it to its shard's ring, blocking
  /// while the ring is full (backpressure). Thread-safe: any number of
  /// producers may feed concurrently (per-shard FIFO then follows
  /// ring-insertion order). `enq` is the instant the record entered the
  /// service, for latency accounting.
  void feed(const simlog::LogRecord& rec, std::uint32_t tmpl,
            ServeMetrics::Clock::time_point enq);
  void feed(const simlog::LogRecord& rec, std::uint32_t tmpl);

  /// Drain, stop the workers, close trailing buckets through `t_end_ms`,
  /// and build the merged prediction list. Idempotent.
  void finish(std::int64_t t_end_ms);

  /// Deterministically merged predictions (valid after finish()).
  const std::vector<core::Prediction>& predictions() const { return merged_; }

  /// Aggregated engine statistics across shards (valid after finish();
  /// chains_used counts chains that fired in at least one shard).
  const core::EngineStats& stats() const { return stats_; }

  /// Dead shard workers revived by the watchdog (kFailWorker recovery).
  std::uint64_t worker_restarts() const {
    // relaxed: standalone monotonic counter read for monitoring; nothing
    // orders against it.
    return restarts_.load(std::memory_order_relaxed);
  }

  /// Records processed so far, per shard (monitoring; the bench reports
  /// max/mean of this as router imbalance).
  std::vector<std::uint64_t> shard_processed() const;

  /// Current per-shard ingest ring depths (racy monitoring snapshot).
  std::vector<std::size_t> shard_depths() const;

  /// Per-shard engine access for tests and diagnostics (do not call while
  /// workers are running).
  const core::OnlineEngine& shard_engine(std::size_t i) const {
    return shards_[i]->engine;
  }

 private:
  using Batch = std::vector<Item>;

  // Thread roles (confinement, not locks — the lock-free ring is the only
  // cross-thread handoff):
  //   * `queue` is the producers->worker channel (slot-sequence protocol);
  //   * `engine`, `preds_streamed`, `dupes_reported`, `ooo_reported` are
  //     touched only by the shard's worker until finish() joins it, after
  //     which the finishing thread owns them (join = synchronization);
  //   * `carryover` is written by a dying worker and read by its restarted
  //     successor or the finishing thread — both sequenced by thread join;
  //   * `processed` / `busy` / `alive` are atomics the watchdog samples.
  struct Shard {
    Shard(std::size_t queue_capacity, core::OnlineEngine eng)
        : queue(queue_capacity), engine(std::move(eng)) {}
    SpscRing<Item> queue;
    core::OnlineEngine engine;
    /// Epoch of the hub model the engine currently serves (worker-confined,
    /// like `engine`; handed across incarnations by thread join). The
    /// sentinel forces a swap on the first pinned batch — epoch comparison,
    /// never pointer comparison: a freed model's address can be reused.
    std::uint64_t model_epoch = ~0ULL;
    std::thread worker;
    Batch carryover;                  ///< unprocessed tail of a dead worker's batch
    std::size_t preds_streamed = 0;   ///< predictions already sunk
    std::size_t dupes_reported = 0;   ///< dedupe hits already counted
    std::size_t ooo_reported = 0;     ///< out-of-order already counted
    // elsa-atomic: monotonic-relaxed — progress counter the watchdog
    // samples; staleness only delays a deadline trip by one poll.
    std::atomic<std::uint64_t> processed{0};  ///< records fed to the engine
    // elsa-atomic: monotonic-relaxed — advisory liveness hint, sampled
    // relaxed on every side by design; never used to publish data.
    std::atomic<bool> busy{false};    ///< worker holds an unfinished batch
    // elsa-atomic: release-acquire-flag — the release store at worker exit
    // publishes the shard's carryover to the watchdog's acquire load.
    std::atomic<bool> alive{false};   ///< worker thread spawned, not dead
  };

  /// Mark the shard alive, then start its worker thread.
  void spawn_worker(Shard& s, std::size_t idx);
  void worker_loop(Shard& s, std::size_t idx);
  /// Feed every item of `batch` to the shard engine; false when an injected
  /// kFailWorker fault killed the worker mid-batch (the unprocessed tail is
  /// parked in `carryover` for the restarted worker).
  bool process_batch(Shard& s, std::size_t idx, Batch& batch);
  /// Hot-swap the shard engine onto the pinned model if its epoch moved.
  /// Caller must hold the pin for the whole batch the engine serves.
  void maybe_swap_model(Shard& s, const ModelHub::Handle& h);
  void watchdog_loop();
  void stop_watchdog();
  /// Stream engine-side deltas (new predictions, dedupe, out-of-order) to
  /// the taps/metrics. Runs on the shard's worker, or on the finishing
  /// thread once workers have joined — never two threads for one `idx` at
  /// once, which is what makes the tap's SPSC hand-off sound.
  void drain_shard(Shard& s, std::size_t idx,
                   ServeMetrics::Clock::time_point enq);

  topo::Topology topo_;
  ServiceConfig opt_;
  std::vector<Tap<core::Prediction>*> taps_;
  ServeMetrics* metrics_ = nullptr;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<core::Prediction> merged_;
  core::EngineStats stats_;
  // elsa-atomic: monotonic-relaxed — watchdog restart counter, summed only.
  std::atomic<std::uint64_t> restarts_{0};
  bool finished_ = false;

  // Watchdog machinery. The watchdog is the only thread that joins and
  // respawns shard workers while the engine runs; finish() and the
  // destructor stop it before touching the workers themselves.
  std::thread watchdog_;
  // Rank kEngine: held only for the stop-flag wait — the watchdog's shard
  // scan (ring depth reads, worker joins, metrics flips) runs unlocked, so
  // nothing is ever acquired under it; the rank documents that it sits
  // above the metrics lock the scan touches.
  util::Mutex wd_mu_{"serve::ShardedEngine::wd_mu_", util::lockrank::kEngine};
  util::CondVar wd_cv_;
  bool wd_stop_ ELSA_GUARDED_BY(wd_mu_) = false;
};

}  // namespace elsa::serve
