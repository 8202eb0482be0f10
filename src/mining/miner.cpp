#include "mining/miner.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "elsa/grite.hpp"
#include "elsa/model_io.hpp"

namespace elsa::mining {

namespace {

constexpr std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Bit-exact double round-trip: text hexfloat parsing is unreliable across
/// standard libraries, so state files carry the raw IEEE-754 bit pattern.
std::uint64_t double_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

double bits_double(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

}  // namespace

bool canonical_less(const serve::ClassifiedEvent& a,
                    const serve::ClassifiedEvent& b) {
  if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
  if (a.node_id != b.node_id) return a.node_id < b.node_id;
  if (a.tmpl != b.tmpl) return a.tmpl < b.tmpl;
  return a.severity < b.severity;
}

OnlineMiner::OnlineMiner(MinerConfig cfg) : cfg_(cfg) {}

double OnlineMiner::decay_to_now(std::uint64_t last) const {
  if (cfg_.half_life_events <= 0.0 || last >= folded_) return 1.0;
  return std::exp2(-static_cast<double>(folded_ - last) /
                   cfg_.half_life_events);
}

// elsa-deterministic: fold state is a pure function of the event sequence
// — the online==batch equivalence gate replays it event for event.
void OnlineMiner::fold(const serve::ClassifiedEvent& e) {
  if (folded_ == 0) first_time_ms_ = e.time_ms;
  ++folded_;
  last_time_ms_ = e.time_ms;

  if (e.tmpl >= tstats_.size()) tstats_.resize(e.tmpl + 1);
  TemplateStat& t = tstats_[e.tmpl];
  t.count = t.count * decay_to_now(t.last) + 1.0;
  t.last = folded_;
  t.sev[std::min<std::size_t>(e.severity, 4)] += 1;

  // Pair the arrival against the lookback window. Each (antecedent ->
  // this) pair entry is independent, so iteration order cannot affect the
  // result; eviction is deferred past the loop to keep it that way.
  for (const Recent& r : recent_) {
    if (e.time_ms - r.time_ms > cfg_.window_ms) continue;
    if (r.tmpl == e.tmpl) continue;
    PairStat& p = pairs_[pair_key(r.tmpl, e.tmpl)];
    const double k = decay_to_now(p.last);
    p.count = p.count * k + 1.0;
    p.delay_sum = p.delay_sum * k +
                  static_cast<double>(e.time_ms - r.time_ms) /
                      static_cast<double>(cfg_.dt_ms);
    p.last = folded_;
  }
  if (pairs_.size() > cfg_.max_pairs) evict_pairs();

  while (!recent_.empty() &&
         (recent_.size() >= cfg_.lookback ||
          recent_.front().time_ms < e.time_ms - cfg_.window_ms))
    recent_.pop_front();
  if (cfg_.lookback > 0) recent_.push_back({e.time_ms, e.tmpl});
}

void OnlineMiner::evict_pairs() {
  // Shrink to 7/8 of the cap in one pass (amortises the sort): evict the
  // lowest current decayed counts, ties broken by key — fully determined
  // by the fold history, never by hash-map iteration order.
  const std::size_t target = cfg_.max_pairs - cfg_.max_pairs / 8;
  std::vector<std::pair<double, std::uint64_t>> weights;
  weights.reserve(pairs_.size());
  // elsa-lint: allow(det-unordered-escape): collect-then-sort — every
  // (weight, key) lands in `weights`, which is sorted before any use, so
  // hash order never reaches the eviction decision.
  for (const auto& [key, p] : pairs_)
    weights.emplace_back(p.count * decay_to_now(p.last), key);
  std::sort(weights.begin(), weights.end());
  const std::size_t evict = pairs_.size() - target;
  for (std::size_t i = 0; i < evict; ++i) pairs_.erase(weights[i].second);
}

simlog::Severity OnlineMiner::majority_severity(const TemplateStat& t) const {
  std::size_t best = 0;
  for (std::size_t s = 1; s < 5; ++s)
    if (t.sev[s] > t.sev[best]) best = s;
  return static_cast<simlog::Severity>(best);
}

// elsa-deterministic: equal fold state must serialise to equal bytes —
// model_digest over this output is the cross-shard acceptance check.
core::OfflineModel OnlineMiner::build_model(
    const helo::TemplateMiner* classifier) const {
  core::OfflineModel model;
  model.method = core::Method::DataMining;
  if (classifier != nullptr) model.helo = *classifier;
  model.train_begin_ms = first_time_ms_;
  model.train_end_ms = last_time_ms_;

  const std::size_t T = tstats_.size();
  model.profiles.assign(T, core::SignalProfile{});  // Silent, spike 0.5:
  // identical to the engine's on-demand detector synthesis, so swapping
  // this model in mid-run never alters detector behaviour.
  model.tmpl_severity.resize(T);
  std::vector<double> occ(T);
  for (std::size_t t = 0; t < T; ++t) {
    model.tmpl_severity[t] = majority_severity(tstats_[t]);
    occ[t] = tstats_[t].count * decay_to_now(tstats_[t].last);
  }

  // Sorted key walk: every emission decision below follows the sorted
  // (antecedent, consequent) order, never unordered_map iteration order —
  // equal state therefore always serialises to equal bytes.
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs_.size());
  // elsa-lint: allow(det-unordered-escape): collect-then-sort — the keys
  // are sorted on the next line; emission walks the sorted order only.
  for (const auto& [key, p] : pairs_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::vector<std::vector<std::uint32_t>> adj(T);
  for (const std::uint64_t key : keys)
    adj[static_cast<std::uint32_t>(key >> 32)].push_back(
        static_cast<std::uint32_t>(key));

  const auto eff = [this](const PairStat& p) {
    return p.count * decay_to_now(p.last);
  };
  const auto mean_delay = [](const PairStat& p) {
    // Decay scales count and delay_sum by the same factor, so the mean is
    // the raw quotient.
    return p.count > 0.0 ? p.delay_sum / p.count : 0.0;
  };
  const auto rounded_delay = [&](const PairStat& p) {
    return static_cast<std::int32_t>(
        std::max<long long>(1, std::llround(mean_delay(p))));
  };

  for (const std::uint64_t key : keys) {
    const auto a = static_cast<std::uint32_t>(key >> 32);
    const auto f = static_cast<std::uint32_t>(key);
    if (a == f || !simlog::is_failure_severity(model.tmpl_severity[f]))
      continue;
    const PairStat& af = pairs_.at(key);
    const double s_af = eff(af);
    if (s_af < cfg_.min_support || occ[a] <= 0.0) continue;
    const double conf = s_af / occ[a];
    if (conf < cfg_.min_confidence) continue;
    const std::int32_t th_af = rounded_delay(af);

    core::Chain two;
    two.items = {{a, 0}, {f, th_af}};
    two.support = static_cast<int>(std::llround(s_af));
    two.confidence = conf;
    two.significance = conf;

    // 3-item extensions a -> b -> f, GRITE delay-consistent: the measured
    // a->f delay must agree with theta_ab + theta_bf within the SAME slack
    // formula the offline miner uses.
    std::vector<core::Chain> threes;
    double best3 = 0.0;
    for (const std::uint32_t b : adj[a]) {
      if (b == f || b == a) continue;
      const auto bf_it = pairs_.find(pair_key(b, f));
      if (bf_it == pairs_.end()) continue;
      const PairStat& ab = pairs_.at(pair_key(a, b));
      const PairStat& bf = bf_it->second;
      const std::int32_t th_ab = rounded_delay(ab);
      const std::int32_t th_bf = rounded_delay(bf);
      if (th_ab >= th_af) continue;  // b must sit strictly inside the span
      if (!core::grite_delay_consistent(th_af, th_ab + th_bf, cfg_.tolerance,
                                        cfg_.tolerance_frac))
        continue;
      const double s3 = std::min({eff(ab), eff(bf), s_af});
      if (s3 < cfg_.min_support) continue;
      const double conf3 = s3 / occ[a];
      if (conf3 < cfg_.min_confidence) continue;
      core::Chain three;
      three.items = {{a, 0}, {b, th_ab}, {f, th_af}};
      three.support = static_cast<int>(std::llround(s3));
      three.confidence = conf3;
      three.significance = conf3;
      best3 = std::max(best3, s3);
      threes.push_back(std::move(three));
    }

    // Subsume: a strong 3-chain over the same (a, f) makes the bare pair
    // redundant.
    const bool keep2 = cfg_.subsume_support_ratio <= 0.0 ||
                       best3 < cfg_.subsume_support_ratio * s_af;
    if (keep2) model.chains.push_back(std::move(two));
    for (core::Chain& c : threes) model.chains.push_back(std::move(c));
  }

  model.non_error_chains =
      core::annotate_failure_items(model.chains, model.tmpl_severity);
  return model;
}

// elsa-deterministic: the state file is canonical — a save/load round trip
// must reproduce byte-identical saves whatever the map's hash order.
void OnlineMiner::save_state(std::ostream& os) const {
  os << "elsa-miner-state 1\n";
  os << "folded " << folded_ << " first " << first_time_ms_ << " last "
     << last_time_ms_ << "\n";
  os << "templates " << tstats_.size() << "\n";
  for (const TemplateStat& t : tstats_) {
    os << "t " << double_bits(t.count) << " " << t.last;
    for (std::size_t s = 0; s < 5; ++s) os << " " << t.sev[s];
    os << "\n";
  }
  os << "recent " << recent_.size() << "\n";
  for (const Recent& r : recent_) os << "r " << r.time_ms << " " << r.tmpl
                                     << "\n";
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs_.size());
  // elsa-lint: allow(det-unordered-escape): collect-then-sort — the pair
  // rows are emitted in sorted-key order, never in hash order.
  for (const auto& [key, p] : pairs_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  os << "pairs " << keys.size() << "\n";
  for (const std::uint64_t key : keys) {
    const PairStat& p = pairs_.at(key);
    os << "p " << key << " " << double_bits(p.count) << " "
       << double_bits(p.delay_sum) << " " << p.last << "\n";
  }
  os << "end\n";
}

void OnlineMiner::load_state(std::istream& is) {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("OnlineMiner::load_state: ") + what);
  };
  std::string word;
  int version = 0;
  if (!(is >> word >> version) || word != "elsa-miner-state" || version != 1)
    fail("bad header");
  std::uint64_t folded = 0;
  std::int64_t first = 0, last = 0;
  if (!(is >> word >> folded) || word != "folded") fail("bad folded");
  if (!(is >> word >> first) || word != "first") fail("bad first");
  if (!(is >> word >> last) || word != "last") fail("bad last");
  // Every section grows one parsed row at a time: a count the file does
  // not back fails at its first missing row instead of sizing anything.
  std::size_t n = 0;
  if (!(is >> word >> n) || word != "templates") fail("bad templates");
  std::vector<TemplateStat> tstats;
  for (std::size_t i = 0; i < n; ++i) {
    TemplateStat t;
    std::uint64_t cnt = 0;
    if (!(is >> word >> cnt >> t.last) || word != "t") fail("bad template row");
    t.count = bits_double(cnt);
    for (std::size_t s = 0; s < 5; ++s)
      if (!(is >> t.sev[s])) fail("bad severity row");
    tstats.push_back(t);
  }
  if (!(is >> word >> n) || word != "recent") fail("bad recent");
  std::deque<Recent> recent;
  for (std::size_t i = 0; i < n; ++i) {
    Recent r{};
    if (!(is >> word >> r.time_ms >> r.tmpl) || word != "r")
      fail("bad recent row");
    // fold() sizes the template table before it records an event, so a
    // saved state never names a template past it; build_model indexes by
    // these ids.
    if (r.tmpl >= tstats.size()) fail("recent row names an unknown template");
    recent.push_back(r);
  }
  if (!(is >> word >> n) || word != "pairs") fail("bad pairs");
  std::vector<std::pair<std::uint64_t, PairStat>> rows;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t key = 0, cnt = 0, dsum = 0;
    PairStat p;
    if (!(is >> word >> key >> cnt >> dsum >> p.last) || word != "p")
      fail("bad pair row");
    p.count = bits_double(cnt);
    p.delay_sum = bits_double(dsum);
    if ((key >> 32) >= tstats.size() ||
        static_cast<std::uint32_t>(key) >= tstats.size())
      fail("pair row names an unknown template");
    rows.emplace_back(key, p);
  }
  std::unordered_map<std::uint64_t, PairStat> pairs;
  pairs.reserve(rows.size());
  pairs.insert(rows.begin(), rows.end());
  if (!(is >> word) || word != "end") fail("missing trailer");

  folded_ = folded;
  first_time_ms_ = first;
  last_time_ms_ = last;
  tstats_ = std::move(tstats);
  recent_ = std::move(recent);
  pairs_ = std::move(pairs);
}

// elsa-deterministic: the rolling publish-history digest the CI equivalence
// job compares across the online and batch legs.
std::uint64_t chain_publish_digest(std::uint64_t stream, std::uint64_t model) {
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((model >> (8 * i)) & 0xff);
  return stream == 0
             ? core::fnv1a_digest(std::string_view(bytes, 8))
             : core::fnv1a_digest(std::string_view(bytes, 8), stream);
}

// elsa-deterministic: the single-threaded reference leg of the
// online==batch gate — by construction a function of `events` alone.
BatchMineResult batch_mine(const std::vector<serve::ClassifiedEvent>& events,
                           const MinerConfig& cfg, std::size_t publish_every,
                           const helo::TemplateMiner& classifier) {
  BatchMineResult out;
  OnlineMiner miner(cfg);
  for (const serve::ClassifiedEvent& e : events) {
    miner.fold(e);
    if (publish_every != 0 && miner.folded() % publish_every == 0) {
      const std::uint64_t d =
          core::model_digest(miner.build_model(nullptr));
      out.publish_digest = chain_publish_digest(out.publish_digest, d);
      ++out.publishes;
    }
  }
  out.model = miner.build_model(&classifier);
  out.model_digest = core::model_digest(out.model);
  return out;
}

}  // namespace elsa::mining
