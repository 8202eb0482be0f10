#include "elsa/pipeline.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

namespace elsa::core {

const char* to_string(Method m) {
  switch (m) {
    case Method::Hybrid: return "ELSA hybrid";
    case Method::SignalOnly: return "ELSA signal";
    case Method::DataMining: return "Data mining";
  }
  return "?";
}

PipelineConfig::PipelineConfig() {
  // Hybrid seeds: solid pairs only; GRITE grows and then prunes them.
  xcorr.max_lag = 540;
  xcorr.tolerance = 3;
  xcorr.min_support = 3;
  xcorr.min_confidence = 0.35;
  xcorr.min_significance = 0.95;
  xcorr.max_chance_pvalue = 1e-7;

  // Pure-signal baseline: weaker gates, more (noisier) pairs.
  xcorr_signal_only = xcorr;
  xcorr_signal_only.min_support = 3;
  xcorr_signal_only.min_confidence = 0.15;
  xcorr_signal_only.min_significance = 0.90;
  xcorr_signal_only.max_chance_pvalue = 3e-5;

  grite.min_support = 3;
  grite.min_confidence = 0.30;
  grite.tolerance = 3;
}

std::vector<simlog::Severity> majority_severity(
    std::size_t num_templates, const std::vector<std::uint32_t>& tids,
    const std::vector<simlog::LogRecord>& records, std::size_t count) {
  // counts[template][severity]
  std::vector<std::array<std::uint32_t, 5>> counts(
      num_templates, std::array<std::uint32_t, 5>{});
  for (std::size_t i = 0; i < count && i < records.size(); ++i) {
    const std::uint32_t t = tids[i];
    if (t >= num_templates) continue;
    ++counts[t][static_cast<std::size_t>(records[i].severity)];
  }
  std::vector<simlog::Severity> out(num_templates, simlog::Severity::Info);
  for (std::size_t t = 0; t < num_templates; ++t) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < 5; ++s)
      if (counts[t][s] > counts[t][best]) best = s;
    out[t] = static_cast<simlog::Severity>(best);
  }
  return out;
}

std::size_t annotate_failure_items(
    std::vector<Chain>& chains, const std::vector<simlog::Severity>& severity) {
  std::size_t non_error = 0;
  for (auto& c : chains) {
    c.failure_item = -1;
    for (std::size_t j = c.items.size(); j-- > 0;) {
      const std::uint32_t t = c.items[j].signal;
      if (t < severity.size() && simlog::is_failure_severity(severity[t])) {
        c.failure_item = static_cast<std::int32_t>(j);
        break;
      }
    }
    if (c.failure_item < 0) ++non_error;
  }
  return non_error;
}

namespace {

/// Run the online detector over a training signal and return the outlier
/// onsets (the offline phase shares the detector so the two phases see the
/// same anomalies).
sigkit::OutlierStream extract_stream(const SignalProfile& profile,
                                     const sigkit::Signal& signal,
                                     std::size_t median_window,
                                     DetectorOptions options) {
  sigkit::OutlierStream stream;
  OnlineDetector det(profile, median_window, options);
  for (std::size_t i = 0; i < signal.v.size(); ++i) {
    const auto r = det.feed(signal.v[i]);
    if (r.kind != OutlierKind::None && r.onset)
      stream.push_back(static_cast<std::int32_t>(i));
  }
  return stream;
}

}  // namespace

OfflineModel train_offline(const simlog::Trace& trace,
                           std::int64_t train_end_ms, Method method,
                           const PipelineConfig& cfg) {
  OfflineModel model;
  model.method = method;
  model.train_begin_ms = trace.t_begin_ms;
  model.train_end_ms = train_end_ms;

  // --- 1. HELO preprocessing over the training records -------------------
  // The training prefix ends at the first record at or past train_end_ms.
  const std::size_t train_count = static_cast<std::size_t>(
      std::find_if(trace.records.begin(), trace.records.end(),
                   [train_end_ms](const simlog::LogRecord& rec) {
                     return rec.time_ms >= train_end_ms;
                   }) -
      trace.records.begin());
  std::vector<std::uint32_t> tids;
  tids.reserve(train_count);
  for (std::size_t i = 0; i < train_count; ++i)
    tids.push_back(model.helo.classify(trace.records[i].message));
  const std::size_t T = model.helo.size();

  // --- 2. Signal extraction (10 s sampling) -------------------------------
  sigkit::SignalSet signals(trace.t_begin_ms, train_end_ms, cfg.dt_ms, T);
  for (std::size_t i = 0; i < train_count; ++i)
    signals.add_event(tids[i], trace.records[i].time_ms);

  // --- 3. Per-signal characterisation -------------------------------------
  model.profiles.resize(T);
  for (std::size_t t = 0; t < T; ++t)
    model.profiles[t] =
        build_profile(signals.signal(t).as_doubles(), cfg.profile);
  model.tmpl_severity =
      majority_severity(T, tids, trace.records, train_count);

  // --- 4. Offline outlier streams + per-onset node sets --------------------
  const DetectorOptions det_options = method == Method::SignalOnly
                                          ? cfg.signal_only_detector
                                          : cfg.engine.detector;
  model.train_outliers.resize(T);
  model.train_events.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    model.train_outliers[t] = extract_stream(
        model.profiles[t], signals.signal(t), cfg.engine.median_window,
        det_options);
    auto& evs = model.train_events[t];
    evs.reserve(model.train_outliers[t].size());
    for (const std::int32_t s : model.train_outliers[t]) {
      OutlierEvent e;
      e.sample = s;
      evs.push_back(std::move(e));
    }
  }
  // Attach nodes: one pass over training records, binary search per record.
  for (std::size_t i = 0; i < train_count; ++i) {
    const auto& rec = trace.records[i];
    if (rec.node_id < 0) continue;
    const std::uint32_t t = tids[i];
    const std::int32_t sample = static_cast<std::int32_t>(
        (rec.time_ms - trace.t_begin_ms) / cfg.dt_ms);
    auto& stream = model.train_outliers[t];
    // A burst's onset bucket may precede this record's bucket by a little;
    // credit the nearest onset within a small backward window.
    auto it = std::upper_bound(stream.begin(), stream.end(), sample);
    if (it == stream.begin()) continue;
    --it;
    if (sample - *it > 6) continue;  // not part of this episode
    auto& nodes =
        model.train_events[t][static_cast<std::size_t>(it - stream.begin())]
            .nodes;
    if (nodes.size() < 8 &&
        std::find(nodes.begin(), nodes.end(), rec.node_id) == nodes.end())
      nodes.push_back(rec.node_id);
  }

  // --- 5. Correlation mining (method-specific) -----------------------------
  const std::size_t total_samples = signals.samples();
  switch (method) {
    case Method::Hybrid: {
      sigkit::XcorrConfig xc = cfg.xcorr;
      xc.total_samples = total_samples;
      model.seeds =
          sigkit::correlate_all(model.train_outliers, xc, cfg.threads);
      GriteConfig gc = cfg.grite;
      gc.total_samples = total_samples;
      gc.threads = cfg.threads;
      model.chains = mine_gradual_itemsets(model.train_outliers, model.seeds,
                                           gc, &model.grite_stats);
      break;
    }
    case Method::SignalOnly: {
      sigkit::XcorrConfig xc = cfg.xcorr_signal_only;
      xc.total_samples = total_samples;
      model.seeds =
          sigkit::correlate_all(model.train_outliers, xc, cfg.threads);
      model.chains.reserve(model.seeds.size());
      for (const auto& s : model.seeds) {
        Chain c;
        c.items = {{static_cast<std::uint32_t>(s.a), 0},
                   {static_cast<std::uint32_t>(s.b), s.delay}};
        c.support = s.support;
        c.confidence = s.confidence;
        c.significance = s.significance;
        model.chains.push_back(std::move(c));
      }
      break;
    }
    case Method::DataMining: {
      std::vector<std::vector<std::int64_t>> occurrences(T);
      for (std::size_t i = 0; i < train_count; ++i)
        occurrences[tids[i]].push_back(trace.records[i].time_ms);
      std::vector<bool> is_failure(T, false);
      for (std::size_t t = 0; t < T; ++t)
        is_failure[t] = simlog::is_failure_severity(model.tmpl_severity[t]);
      const double train_days =
          static_cast<double>(train_end_ms - trace.t_begin_ms) / 86400000.0;
      model.chains = mine_assoc_rules(occurrences, is_failure, cfg.dt_ms,
                                      train_days, cfg.dm, &model.dm_stats);
      break;
    }
  }

  // --- 6. Failure annotation + location profiles ---------------------------
  model.non_error_chains =
      annotate_failure_items(model.chains, model.tmpl_severity);
  if (method != Method::DataMining) {
    LocationConfig lc;
    lc.tolerance = cfg.grite.tolerance;
    annotate_locations(model.chains, model.train_events, trace.topology, lc);
  }
  return model;
}

ExperimentResult run_experiment(const simlog::Trace& trace, double train_days,
                                Method method, const PipelineConfig& cfg) {
  const std::int64_t train_end_ms =
      trace.t_begin_ms + static_cast<std::int64_t>(train_days * 86400000.0);

  ExperimentResult result;
  result.model = train_offline(trace, train_end_ms, method, cfg);
  OfflineModel& model = result.model;

  EngineConfig ec = cfg.engine;
  ec.dt_ms = cfg.dt_ms;
  ec.tolerance = cfg.grite.tolerance;
  ec.use_location = method != Method::DataMining;
  ec.raw_event_matching = method == Method::DataMining;
  if (method == Method::SignalOnly) {
    ec.cost = cfg.signal_only_cost;
    ec.detector = cfg.signal_only_detector;
  }

  OnlineEngine engine(trace.topology, model.chains, model.profiles, ec);

  // Failure-record templates per fault, resolved as records stream by.
  std::unordered_map<std::uint32_t, std::size_t> fault_index;
  for (std::size_t i = 0; i < trace.faults.size(); ++i)
    fault_index[trace.faults[i].id] = i;
  result.fault_failure_tmpls.assign(trace.faults.size(), {});

  for (const auto& rec : trace.records) {
    // Resolve terminal templates for all records (train + test): the HELO
    // ids are stable across phases because the same miner continues.
    std::uint32_t tid;
    if (rec.time_ms < train_end_ms) {
      tid = model.helo.classify_const(rec.message);
      if (tid == helo::TemplateMiner::kNoTemplate)
        tid = model.helo.classify(rec.message);
    } else {
      tid = model.helo.classify(rec.message);
      engine.feed(rec, tid);
    }
    if (rec.fault_id != 0 && simlog::is_failure_severity(rec.severity)) {
      const auto it = fault_index.find(rec.fault_id);
      if (it != fault_index.end()) {
        auto& tmpls = result.fault_failure_tmpls[it->second];
        if (std::find(tmpls.begin(), tmpls.end(), tid) == tmpls.end())
          tmpls.push_back(tid);
      }
    }
  }
  engine.finish(trace.t_end_ms);

  result.predictions = engine.predictions();
  result.engine_stats = engine.stats();
  result.eval = evaluate_predictions(result.predictions, trace.faults,
                                     result.fault_failure_tmpls,
                                     trace.topology, train_end_ms, cfg.eval);
  return result;
}

}  // namespace elsa::core
