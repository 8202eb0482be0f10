#include "serve/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <tuple>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace elsa::serve {

bool prediction_less(const core::Prediction& a, const core::Prediction& b) {
  const auto key = [](const core::Prediction& p) {
    return std::tie(p.issue_time_ms, p.chain_id, p.tmpl, p.trigger_time_ms,
                    p.predicted_time_ms);
  };
  if (key(a) != key(b)) return key(a) < key(b);
  return std::lexicographical_compare(a.nodes.begin(), a.nodes.end(),
                                      b.nodes.begin(), b.nodes.end());
}

namespace {

/// Best-effort worker pinning: bind the calling thread to one core of its
/// currently-allowed set, round-robin by shard index. Silently a no-op off
/// Linux or when the affinity calls fail (containers often restrict them) —
/// pinning is a throughput hint, never a correctness dependency.
void pin_to_core(std::size_t shard_idx) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0)
    return;
  const int n_allowed = CPU_COUNT(&allowed);
  if (n_allowed <= 1) return;
  // Pick the (shard_idx % n_allowed)-th set bit of the allowed mask.
  int want = static_cast<int>(shard_idx % static_cast<std::size_t>(n_allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
#else
  (void)shard_idx;
#endif
}

}  // namespace

ShardedEngine::ShardedEngine(const topo::Topology& topo,
                             std::vector<core::Chain> chains,
                             std::vector<core::SignalProfile> profiles,
                             ServiceConfig cfg,
                             std::vector<Tap<core::Prediction>*> taps,
                             ServeMetrics* metrics)
    : topo_(topo), opt_(std::move(cfg)), taps_(std::move(taps)),
      metrics_(metrics) {
  if (opt_.shards == 0) opt_.shards = 1;
  if (opt_.batch == 0) opt_.batch = 1;
  // Split the total ingest capacity across the shard rings. Floor of two
  // batches per shard: a ring smaller than one pop quantum would make
  // backpressure oscillate instead of smoothing bursts.
  const std::size_t ring_capacity = std::max(
      {opt_.ingest_capacity / opt_.shards, 2 * opt_.batch, std::size_t{2}});
  // Reader slots in the RCU hub are a fixed-width word; more shards than
  // slots cannot pin distinctly.
  if (opt_.hub && opt_.shards > ModelHub::kMaxReaders)
    opt_.shards = ModelHub::kMaxReaders;
  const std::int32_t nodes_per_midplane =
      std::max(1, topo.nodes_per_nodecard() * topo.nodecards_per_midplane());
  router_ = ShardRouter(nodes_per_midplane, opt_.shards);
  shards_.reserve(opt_.shards);
  for (std::size_t i = 0; i < opt_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        ring_capacity,
        core::OnlineEngine(topo, chains, profiles, opt_.engine)));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) spawn_worker(*shards_[i], i);
  if (opt_.watchdog_interval_ms > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

ShardedEngine::~ShardedEngine() {
  stop_watchdog();
  for (auto& s : shards_) s->queue.close();
  for (auto& s : shards_)
    if (s->worker.joinable()) s->worker.join();
}

void ShardedEngine::feed(const simlog::LogRecord& rec, std::uint32_t tmpl,
                         ServeMetrics::Clock::time_point enq) {
  shards_[router_.shard_of(rec.node_id)]->queue.push(
      Item{rec.time_ms, rec.node_id, tmpl,
           static_cast<std::uint8_t>(rec.severity), enq});
}

void ShardedEngine::feed(const simlog::LogRecord& rec, std::uint32_t tmpl) {
  feed(rec, tmpl,
       metrics_ ? ServeMetrics::Clock::now() : ServeMetrics::Clock::time_point{});
}

void ShardedEngine::maybe_swap_model(Shard& s, const ModelHub::Handle& h) {
  if (h.epoch() == s.model_epoch) return;
  s.engine.swap_model(h.get());
  s.model_epoch = h.epoch();
  if (metrics_) metrics_->on_model_swap();
}

bool ShardedEngine::process_batch(Shard& s, std::size_t idx, Batch& batch) {
  simlog::LogRecord rec;  // only the fields the engine reads are filled
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Item& item = batch[i];
    rec.time_ms = item.time_ms;
    rec.node_id = item.node_id;
    s.engine.feed(rec, item.tmpl);
    // Exactly-once event stream for the miner: publish adjacent to the
    // engine feed, BEFORE the injected-death check — a killed worker parks
    // only the unprocessed tail, so re-delivery cannot republish this item.
    if (opt_.event_tap)
      opt_.event_tap->publish(
          idx, ClassifiedEvent{item.time_ms, item.node_id, item.tmpl,
                               item.severity});
    // relaxed: monotonic progress counter; the watchdog only compares
    // successive samples, nothing orders against it.
    const std::uint64_t done =
        s.processed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (metrics_) metrics_->on_processed(item.enq);
    drain_shard(s, idx, item.enq);
    if (opt_.faults) {
      if (opt_.faults->worker_fails_at(idx, done)) {
        // Injected worker death: park the unprocessed tail for whoever
        // resumes this shard (restarted worker or the finishing thread),
        // then vanish. `busy` stays true — the shard still owes work.
        s.carryover.assign(batch.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                           batch.end());
        s.alive.store(false, std::memory_order_release);
        return false;
      }
      const std::int64_t stall = opt_.faults->stall_ms_at(idx, done);
      if (stall > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
  }
  return true;
}

void ShardedEngine::spawn_worker(Shard& s, std::size_t idx) {
  // Alive before the thread exists: a watchdog scan that ran before the
  // new thread's first instruction would otherwise take the shard for
  // dead and join a live worker that exits only on close — hanging both
  // the watchdog and whoever stops it.
  s.alive.store(true, std::memory_order_release);
  s.worker = std::thread([this, &s, idx] { worker_loop(s, idx); });
}

void ShardedEngine::worker_loop(Shard& s, std::size_t idx) {
  if (opt_.pin_workers) pin_to_core(idx);
  if (!s.carryover.empty()) {
    // Resume the batch a previous incarnation abandoned mid-flight.
    Batch b;
    b.swap(s.carryover);
    bool ok;
    if (opt_.hub) {
      const ModelHub::Handle h = opt_.hub->pin(idx);
      maybe_swap_model(s, h);
      ok = process_batch(s, idx, b);
    } else {
      ok = process_batch(s, idx, b);
    }
    if (!ok) return;
    // relaxed: advisory liveness hint the watchdog samples.
    s.busy.store(false, std::memory_order_relaxed);
  }
  Batch batch;
  batch.reserve(opt_.batch);
  for (;;) {
    batch.clear();
    if (!s.queue.pop_wait(batch, opt_.batch)) break;
    // relaxed: (all busy stores) advisory liveness hint the watchdog
    // samples; item data is handed off through the ring's own
    // synchronization.
    s.busy.store(true, std::memory_order_relaxed);
    bool ok;
    if (opt_.hub) {
      // Pin once per batch: the engine's model pointer stays valid for the
      // whole batch, the hub swap costs one seq_cst store+load, and no lock
      // ever appears on the predict path.
      const ModelHub::Handle h = opt_.hub->pin(idx);
      maybe_swap_model(s, h);
      ok = process_batch(s, idx, batch);
    } else {
      ok = process_batch(s, idx, batch);
    }
    if (!ok) return;
    // relaxed: as above.
    s.busy.store(false, std::memory_order_relaxed);
  }
}

void ShardedEngine::watchdog_loop() {
  const auto interval = std::chrono::milliseconds(opt_.watchdog_interval_ms);
  const auto deadline = std::chrono::milliseconds(opt_.watchdog_deadline_ms);
  const std::size_t n = shards_.size();
  std::vector<std::uint64_t> last(n, 0);
  std::vector<std::chrono::steady_clock::time_point> since(
      n, std::chrono::steady_clock::now());
  std::vector<bool> tripped(n, false);
  for (std::size_t i = 0; i < n; ++i)
    // relaxed: sampling an advisory progress counter; scans re-sample.
    last[i] = shards_[i]->processed.load(std::memory_order_relaxed);

  for (;;) {
    {
      // wd_mu_ guards only the stop flag and this pacing wait. The scan
      // below runs unlocked: it joins dead workers and reads ring depths,
      // both blocking-shaped operations that must not be nested under a
      // held mutex (elsa-lint's blocking-under-lock rule bans exactly
      // that, and stop_watchdog() must never queue behind a join). The
      // scan needs no lock — shards_ is immutable while serving, the
      // sampled fields are atomics (the ring's depth read included), and
      // this thread is the sole joiner/respawner of shard workers until
      // stop_watchdog() has joined the watchdog itself.
      util::MutexLock lk(wd_mu_);
      if (wd_stop_) break;
      wd_cv_.wait_for(wd_mu_, interval);
      if (wd_stop_) break;
    }
    bool any_tripped = false;
    for (std::size_t i = 0; i < n; ++i) {
      Shard& s = *shards_[i];
      // relaxed: sampling advisory progress/liveness counters; exactness
      // per scan is not required, the next scan re-samples.
      const std::uint64_t p = s.processed.load(std::memory_order_relaxed);
      // relaxed: as above.
      const bool pending =
          s.queue.size() > 0 || s.busy.load(std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      if (p != last[i] || !pending) {
        // Progress, or nothing owed: healthy. Re-anchor the deadline.
        last[i] = p;
        since[i] = now;
        tripped[i] = false;
        continue;
      }
      if (s.alive.load(std::memory_order_acquire)) {
        if (now - since[i] >= deadline && !tripped[i]) {
          tripped[i] = true;
          if (metrics_) metrics_->on_watchdog_trip();
        }
      } else {
        // Dead worker with work owed: revive it. The join synchronises the
        // dead incarnation's carryover with the new one.
        if (s.worker.joinable()) s.worker.join();
        // relaxed: monotonic restart counter, monitoring only.
        restarts_.fetch_add(1, std::memory_order_relaxed);
        if (metrics_) metrics_->on_watchdog_trip();
        tripped[i] = true;  // count this scan as unhealthy...
        spawn_worker(s, i);
        since[i] = now;  // ...but give the revived worker a fresh deadline
      }
      if (tripped[i]) any_tripped = true;
    }
    if (metrics_) metrics_->set_degraded(any_tripped);
  }
}

void ShardedEngine::stop_watchdog() {
  if (!watchdog_.joinable()) return;
  {
    util::MutexLock lk(wd_mu_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  watchdog_.join();
  if (metrics_) metrics_->set_degraded(false);
}

void ShardedEngine::drain_shard(Shard& s, std::size_t idx,
                                ServeMetrics::Clock::time_point enq) {
  const auto& preds = s.engine.predictions();
  while (s.preds_streamed < preds.size()) {
    const core::Prediction& p = preds[s.preds_streamed++];
    if (metrics_) metrics_->on_prediction(enq);
    for (Tap<core::Prediction>* tap : taps_) tap->publish(idx, p);
  }
  if (metrics_) {
    const core::EngineStats& st = s.engine.stats();
    if (st.duplicates_suppressed > s.dupes_reported) {
      metrics_->on_dedupe(st.duplicates_suppressed - s.dupes_reported);
      s.dupes_reported = st.duplicates_suppressed;
    }
    if (st.out_of_order > s.ooo_reported) {
      metrics_->on_out_of_order(st.out_of_order - s.ooo_reported);
      s.ooo_reported = st.out_of_order;
    }
  }
}

std::vector<std::uint64_t> ShardedEngine::shard_processed() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_)
    // relaxed: monitoring sample of an advisory progress counter.
    out.push_back(s->processed.load(std::memory_order_relaxed));
  return out;
}

std::vector<std::size_t> ShardedEngine::shard_depths() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s->queue.size());
  return out;
}

void ShardedEngine::finish(std::int64_t t_end_ms) {
  if (finished_) return;
  finished_ = true;

  // The watchdog joins/respawns workers; stop it before we touch them.
  stop_watchdog();

  for (auto& s : shards_) s->queue.close();
  for (auto& s : shards_)
    if (s->worker.joinable()) s->worker.join();

  // A worker killed by an injected fault (and not revived — watchdog off or
  // stopped) leaves a parked carryover tail and possibly queued items
  // behind, and a push racing close() may have landed a straggler after its
  // shard's worker exited. Conservation demands every accepted record reach
  // an engine: drain them serially here, in original per-shard FIFO order
  // (carryover precedes the queue), where this thread owns everything
  // (workers joined, producers quiesced by the caller).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    // Pinning per shard keeps the one-pin-per-slot contract: the worker
    // for slot i has joined, so this thread is slot i's sole reader now.
    ModelHub::Handle h;
    if (opt_.hub) {
      h = opt_.hub->pin(i);
      maybe_swap_model(s, h);
    }
    simlog::LogRecord rec;
    const auto drain_item = [&](const Item& item) {
      rec.time_ms = item.time_ms;
      rec.node_id = item.node_id;
      s.engine.feed(rec, item.tmpl);
      if (opt_.event_tap)
        opt_.event_tap->publish(
            i, ClassifiedEvent{item.time_ms, item.node_id, item.tmpl,
                               item.severity});
      // relaxed: monotonic progress counter, monitoring only.
      s.processed.fetch_add(1, std::memory_order_relaxed);
      if (metrics_) metrics_->on_processed(item.enq);
      drain_shard(s, i, item.enq);
    };
    if (!s.carryover.empty()) {
      Batch b;
      b.swap(s.carryover);
      for (const Item& item : b) drain_item(item);
    }
    while (auto item = s.queue.try_pop()) drain_item(*item);
  }

  // Closing trailing buckets can still emit predictions; workers are gone,
  // so finish and drain serially here. The pin keeps the engine's model
  // alive across the trailing-bucket flush.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    ModelHub::Handle h;
    if (opt_.hub) {
      h = opt_.hub->pin(i);
      maybe_swap_model(s, h);
    }
    s.engine.finish(t_end_ms);
    drain_shard(s, i, ServeMetrics::Clock::now());
  }

  // Deterministic merge.
  merged_.clear();
  for (const auto& s : shards_) {
    const auto& preds = s->engine.predictions();
    merged_.insert(merged_.end(), preds.begin(), preds.end());
  }
  std::stable_sort(merged_.begin(), merged_.end(), prediction_less);

  // Aggregate statistics.
  stats_ = core::EngineStats{};
  std::vector<std::size_t> fires;
  for (const auto& s : shards_) {
    const core::EngineStats& st = s->engine.stats();
    stats_.records += st.records;
    stats_.buckets += st.buckets;
    stats_.out_of_order += st.out_of_order;
    stats_.outlier_onsets += st.outlier_onsets;
    stats_.raw_triggers += st.raw_triggers;
    stats_.predictions_emitted += st.predictions_emitted;
    stats_.duplicates_suppressed += st.duplicates_suppressed;
    stats_.analysis_window_ms.insert(stats_.analysis_window_ms.end(),
                                     st.analysis_window_ms.begin(),
                                     st.analysis_window_ms.end());
    const auto& f = s->engine.chain_fires();
    if (fires.size() < f.size()) fires.resize(f.size(), 0);
    for (std::size_t c = 0; c < f.size(); ++c) fires[c] += f[c];
  }
  stats_.chains_used = static_cast<std::size_t>(
      std::count_if(fires.begin(), fires.end(),
                    [](std::size_t f) { return f > 0; }));
}

}  // namespace elsa::serve
