// elsabench — the ELSA benchmark harness. run.py validates the command line
// and builds the harness, then runs
//
//   elsabench WORKLOAD SEED SECONDS TRACE [SPANS]
//   elsabench --self-test
//
// A run turns (workload, seed) into a RAS text log and a model file
// (untimed), counts the heap of one untimed pass of each kind twice, then,
// for SECONDS, repeats rounds of timed samples, each pass on fresh
// services:
//   set-up        parse the log, load the model, construct the services
//                 (setup_s, per million log lines);
//   serve closed  2-shard advisor service, submits as fast as backpressure
//                 allows (serve_records_per_s, serve_mem_mb);
//   serve open    the same at a fixed mean of 200 000 records/s with the
//                 log's own burst shape; latency from each record's due
//                 instant to its processing, in the windows the schedule's
//                 bursts leave alone (serve_latency_p50/p99_us);
//   mine          1-shard miner service over the whole log
//                 (mine_records_per_s; its heap is printed, and traced as
//                 mining.mem_mb);
//   train         core::train_offline on the training days (train_s and
//                 train_mem_mb, per million training records: a seed's
//                 input size varies by about a tenth).
// A calibration kernel runs between samples; each CPU-bound sample
// (records/s, train_s, setup_s) is scaled to the reference machine speed by
// the readings taken just before and just after it, and the report prints
// the values as measured and every reading beside the metrics. Every pass's
// output is checked (digests against the first pass and the batch-mining
// oracle, conservation, drops). With TRACE 1 the run instead times every
// layer from outside and prints the per-layer ledger (layers.cpp). The last
// stdout line is the JSON result.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "passes.hpp"

namespace {

using namespace elsabench;

/// Samples per round: the short closed-loop passes and the set-ups repeat
/// so each round gives their medians several samples beside one ~5 s
/// open-loop pass.
constexpr int kSetupsPerRound = 2;
constexpr int kServePerRound = 3;
constexpr int kMinePerRound = 2;
constexpr int kTrainPerRound = 3;
/// Untimed passes of each kind that count the heap, before the rounds.
constexpr int kMemoryPasses = 2;
/// Each open-loop pass's records are cut into this many equal windows of
/// ~50 ms (~10 000 records), which the steal filter keeps or drops.
constexpr std::size_t kLatencyWindows = 100;
/// A burst of the open-loop schedule: at least this many records, each due
/// at most kBurstGapNs after the one before (offered at >= 1 M records/s,
/// five times the mean rate). Mercury's replay holds 4-11 such storms of
/// near-simultaneous NFS records, BG/L's none. A storm's records wait for
/// the producer to classify the ones ahead of them, so a pooled tail is set
/// by the few storms a seed draws: p99 read 1.6-3.6 ms over ten Mercury
/// seeds. The latency percentiles therefore pool the windows that no burst
/// touches, nor the one after (the backlog may spill into it); the report
/// prints the bursts' share, their drain rate and the all-record tail.
constexpr std::size_t kBurstRecords = 256;
constexpr std::int64_t kBurstGapNs = 1'000;
/// A sample during which the hypervisor took more than this share of the
/// machine's CPU time is left out of the medians (on a shared 4-vCPU KVM
/// guest, quiet spells show 0.1-0.3 % steal and bad ones 5-20 %, with
/// latencies in milliseconds).
constexpr double kMaxSteal = 0.01;

/// One timed sample: the value as measured, the span it covers and the
/// mean of the calibration readings taken just before and just after it.
struct Sample {
  double value = 0.0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  double calib_ns = 0.0;
};

bool steal_ok(const StealSamples& steal, std::int64_t t0, std::int64_t t1) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return stolen_between(steal, t0, t1) <=
         kMaxSteal * cpus * seconds_between(t0, t1);
}

/// The samples during which the hypervisor took at most kMaxSteal of the
/// machine's CPU time — the others measured the host, not ELSA — or all of
/// them when none qualifies.
std::vector<Sample> steal_free(const std::vector<Sample>& v,
                               const StealSamples& steal) {
  std::vector<Sample> out;
  for (const Sample& s : v)
    if (steal_ok(steal, s.t0_ns, s.t1_ns)) out.push_back(s);
  return out.empty() ? v : out;
}

/// Median of the samples as measured, or scaled to the reference machine:
/// a rate measured on a slower machine (a higher calibration reading) is
/// scaled up, a time down.
enum class Scale : std::uint8_t { kNone, kRate, kTime };
double median_of(const std::vector<Sample>& v, Scale scale) {
  std::vector<double> x;
  for (const Sample& s : v) {
    const double speed = s.calib_ns / kReferenceCalibNs;
    x.push_back(scale == Scale::kRate   ? s.value * speed
                : scale == Scale::kTime ? s.value / speed
                                        : s.value);
  }
  return median(x);
}

/// One open-loop latency window: its records' slot in the run's latency
/// buffer and the span from its first due instant to 1 ms past its last.
struct Window {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

std::vector<Metric> run_timed(RunState& s, int seconds) {
  const Ready& r = s.ready;
  const std::size_t all = r.trace.records.size();
  std::vector<Sample> setup, serve_rps, mine_rps, train_s;
  std::vector<HeapUse> serve_mem, mine_mem, train_mem;
  std::vector<std::int64_t> latency, pooled;
  std::vector<Window> windows;
  // Bursts are fixed by the schedule, so which windows they touch never
  // depends on how the system copes with them.
  const std::size_t n = s.plan.due.size();
  const auto slices = window_slices(n, kLatencyWindows);
  const auto bursts = find_bursts(s.plan.due, kBurstRecords, kBurstGapNs);
  std::vector<char> touched(slices.size() + 1, 0);
  std::size_t held = 0;
  double drained = 0.0, drain_s = 0.0;  // burst records, and time to drain
  for (const auto& [b, e] : bursts) {
    held += e - b;
    for (std::size_t w = 0; w < slices.size(); ++w)
      if (slices[w].first < e && b < slices[w].second)
        touched[w] = touched[w + 1] = 1;
  }

  // Memory: untimed passes with the heap counted (counting costs atomic
  // updates on every allocation, which no timed pass should pay); they also
  // warm every path up.
  for (int k = 0; k < kMemoryPasses; ++k) {
    HeapUse m;
    s.record(with_heap(m, [&] {
      return serve_closed(r, r.window_begin, all, nullptr);
    }), "closed");
    serve_mem.push_back(m);
    s.record(with_heap(m, [&] { return mine_pass(r, all, nullptr); }));
    mine_mem.push_back(m);
    s.record(with_heap(m, [&] { return train_pass(r, nullptr); }));
    train_mem.push_back(m);
  }
  std::printf("heap MiB a pass adds, mean/peak:");
  for (int k = 0; k < kMemoryPasses; ++k)
    std::printf(" serve %.3f/%.3f, mine %.3f/%.3f, train %.3f/%.3f;",
                serve_mem[k].mean_mib, serve_mem[k].peak_mib,
                mine_mem[k].mean_mib, mine_mem[k].peak_mib,
                train_mem[k].mean_mib, train_mem[k].peak_mib);
  std::printf("\n");
  const auto mean_mib = [](const std::vector<HeapUse>& v) {
    std::vector<double> x;
    for (const HeapUse& u : v) x.push_back(u.mean_mib);
    return median(x);
  };
  latency.reserve(n);
  StealMonitor monitor;
  // Calibration readings in time order; back() is the latest.
  std::vector<double> calib = {calib_ns()};
  std::vector<std::size_t> round_calib;  // index of each round's first
  // Time `pass` (which returns its value as measured) as one sample of
  // `into`, and take the calibration reading that follows it.
  const auto sample = [&](std::vector<Sample>& into, auto&& pass) {
    const double before = calib.back();
    const std::int64_t t0 = now_ns();
    const double value = pass();
    const std::int64_t t1 = now_ns();
    calib.push_back(calib_ns());
    into.push_back({value, t0, t1, (before + calib.back()) / 2.0});
  };

  const std::int64_t start = now_ns();
  int rounds = 0;
  // Another round while one more of the mean length so far fits the budget.
  for (int round = 1;
       round == 1 || seconds_between(start, now_ns()) * (round + 0.0) /
                             (round - 1) <=
                         seconds;
       ++round) {
    rounds = round;
    round_calib.push_back(calib.size() - 1);
    for (int k = 0; k < kSetupsPerRound; ++k)
      sample(setup, [&] {
        return set_up(s.campaign, s.ready, nullptr) * 1e6 /
               static_cast<double>(s.campaign.lines);
      });

    s.warm_serve();
    for (int k = 0; k < kServePerRound; ++k)
      sample(serve_rps, [&] {
        const ServeResult closed =
            serve_closed(r, r.window_begin, all, nullptr);
        s.record(closed, "closed");
        return static_cast<double>(closed.records) / closed.seconds;
      });

    s.warm_serve();
    latency.clear();
    const OpenResult open = serve_open(r, s.plan, latency, nullptr);
    s.record(open);
    for (std::size_t w = 0; w < slices.size(); ++w) {
      if (touched[w]) continue;
      const auto [b, e] = slices[w];
      windows.push_back({pooled.size() + b, pooled.size() + e,
                         open.base_ns + s.plan.due[b],
                         open.base_ns + s.plan.due[e - 1] + 1'000'000});
    }
    for (const auto& [b, e] : bursts) {
      // An unprocessed record fails the pass already; 0 reads as done.
      const std::int64_t last = *std::max_element(
          s.plan.done.begin() + static_cast<std::ptrdiff_t>(b),
          s.plan.done.begin() + static_cast<std::ptrdiff_t>(e));
      drained += static_cast<double>(e - b);
      drain_s += seconds_between(open.base_ns + s.plan.due[b], last);
    }
    pooled.insert(pooled.end(), latency.begin(), latency.end());
    calib.push_back(calib_ns());

    s.warm_mine();
    for (int k = 0; k < kMinePerRound; ++k)
      sample(mine_rps, [&] {
        const MineResult mine = mine_pass(r, all, nullptr);
        s.record(mine);
        return static_cast<double>(mine.records) / mine.seconds;
      });

    for (int k = 0; k < kTrainPerRound; ++k)
      sample(train_s, [&] {
        const TrainResult t = train_pass(r, nullptr);
        s.record(t);
        return t.seconds * 1e6 / static_cast<double>(r.window_begin);
      });

    std::vector<std::int64_t> late = s.plan.late;
    std::printf(
        "round %d: set-up %.3f s; serve %.0f rec/s; open loop %zu records, "
        "generator late p99 %.1f us, max %.1f us; mine %.0f rec/s; train "
        "%.3f s; calib_ns",
        round, setup.back().value, serve_rps.back().value, latency.size(),
        static_cast<double>(percentile(late, 0.99)) * 1e-3,
        static_cast<double>(percentile(late, 1.0)) * 1e-3,
        mine_rps.back().value, train_s.back().value);
    for (std::size_t i = round_calib.back(); i < calib.size(); ++i)
      std::printf(" %.3f", calib[i]);
    std::printf("\n");
  }

  const StealSamples steal = monitor.samples();
  const auto kept_setup = steal_free(setup, steal);
  const auto kept_serve = steal_free(serve_rps, steal);
  const auto kept_mine = steal_free(mine_rps, steal);
  const auto kept_train = steal_free(train_s, steal);

  // Latency: the records of the steal-free windows no burst touches (all
  // of those windows when none is steal-free).
  std::vector<std::int64_t> lat;
  std::size_t kept_windows = 0;
  for (const bool any : {false, true}) {
    for (const Window& w : windows) {
      if (!any && !steal_ok(steal, w.t0_ns, w.t1_ns)) continue;
      ++kept_windows;
      lat.insert(lat.end(), pooled.begin() + static_cast<std::ptrdiff_t>(w.begin),
                 pooled.begin() + static_cast<std::ptrdiff_t>(w.end));
    }
    if (kept_windows > 0) break;
  }
  s.tally.check(percentile_supported(lat.size(), 0.99),
                "too few latency samples outside bursts");
  const double lat50 = static_cast<double>(percentile(lat, 0.50)) * 1e-3;
  const double lat99 = static_cast<double>(percentile(lat, 0.99)) * 1e-3;
  const double all99 = static_cast<double>(percentile(pooled, 0.99)) * 1e-3;
  const double all999 = static_cast<double>(percentile(pooled, 0.999)) * 1e-3;

  std::printf("%d rounds in %.1f s; steal-free samples kept for the medians: "
              "set-up %zu/%zu, serve %zu/%zu, latency windows %zu/%zu, mine "
              "%zu/%zu, train %zu/%zu\n",
              rounds, seconds_between(start, now_ns()), kept_setup.size(),
              setup.size(), kept_serve.size(), serve_rps.size(), kept_windows,
              windows.size(), kept_mine.size(), mine_rps.size(),
              kept_train.size(), train_s.size());
  std::printf("open loop: %zu bursts (>= %zu records due <= %lld ns apart) "
              "hold %zu of %zu records (%.1f%%); they and the windows after "
              "them leave out %lld of %zu windows; drained at %.0f rec/s as "
              "measured. Latency over the %zu records of the kept windows: "
              "p50 %.2f us, p99 %.2f us; over all records: p99 %.2f us, "
              "p99.9 %.2f us\n",
              bursts.size(), kBurstRecords,
              static_cast<long long>(kBurstGapNs), held, n,
              100.0 * static_cast<double>(held) / static_cast<double>(n),
              static_cast<long long>(std::count(
                  touched.begin(), touched.begin() + slices.size(), 1)),
              slices.size(), drain_s > 0.0 ? drained / drain_s : 0.0,
              lat.size(), lat50, lat99, all99, all999);
  const auto print_samples = [](const char* name,
                                const std::vector<Sample>& v) {
    std::printf("  %s, as measured @ calib_ns:", name);
    for (const Sample& x : v) std::printf(" %.5g@%.3f", x.value, x.calib_ns);
    std::printf("\n");
  };
  std::printf("samples (setup_s per million log lines, train_s per million "
              "training records; this input has %zu and %zu):\n",
              s.campaign.lines, r.window_begin);
  print_samples("setup_s", setup);
  print_samples("serve rec/s", serve_rps);
  print_samples("mine rec/s", mine_rps);
  print_samples("train_s", train_s);
  std::printf("calib_ns: %zu readings, median %.4f, min %.4f, max %.4f\n",
              calib.size(), median(calib),
              *std::min_element(calib.begin(), calib.end()),
              *std::max_element(calib.begin(), calib.end()));
  std::printf("as measured (medians of the kept samples): serve %.0f rec/s, "
              "mine %.0f rec/s, train %.4f s/M, setup %.4f s/M; scaled to "
              "calib_ns %.1f by the readings around each sample: serve %.0f "
              "rec/s, mine %.0f rec/s, train %.4f s/M, setup %.4f s/M\n",
              median_of(kept_serve, Scale::kNone),
              median_of(kept_mine, Scale::kNone),
              median_of(kept_train, Scale::kNone),
              median_of(kept_setup, Scale::kNone), kReferenceCalibNs,
              median_of(kept_serve, Scale::kRate),
              median_of(kept_mine, Scale::kRate),
              median_of(kept_train, Scale::kTime),
              median_of(kept_setup, Scale::kTime));
  return {
      {"serve_records_per_s", median_of(kept_serve, Scale::kRate), "1/s"},
      {"serve_latency_p50_us", lat50, "us"},
      {"serve_latency_p99_us", lat99, "us"},
      {"mine_records_per_s", median_of(kept_mine, Scale::kRate), "1/s"},
      {"train_s", median_of(kept_train, Scale::kTime), "s"},
      {"setup_s", median_of(kept_setup, Scale::kTime), "s"},
      {"serve_mem_mb", mean_mib(serve_mem), "MiB"},
      {"train_mem_mb",
       mean_mib(train_mem) * 1e6 / static_cast<double>(r.window_begin),
       "MiB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0)
    return run_selftests() ? 0 : 1;
  if (argc != 5 && argc != 6) {
    std::fprintf(stderr,
                 "usage: elsabench WORKLOAD SEED SECONDS TRACE [SPANS]\n"
                 "       elsabench --self-test\n"
                 "(run through elsabench/run.py, which checks the arguments)\n");
    return 2;
  }
  const std::string workload = argv[1];
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const int seconds = std::atoi(argv[3]);
  const bool trace = std::strcmp(argv[4], "1") == 0;
  const std::string spans = argc == 6 ? argv[5] : "";

  try {
    const double calib_start = calib_ns();
    const double steal_start = steal_seconds();
    const std::int64_t t0 = now_ns();
    RunState s;
    s.campaign = make_campaign(workload, seed);
    std::printf("workload %s, seed %llu: %zu log lines (%.1f MB), model %zu "
                "bytes, prepared in %.1f s\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                s.campaign.lines,
                static_cast<double>(s.campaign.log_text.size()) / 1e6,
                s.campaign.model_text.size(), seconds_between(t0, now_ns()));

    Tracer tracer;
    s.prepare(trace ? &tracer : nullptr);
    std::vector<Metric> metrics =
        trace ? run_traced(s, tracer) : run_timed(s, seconds);

    const double calib_end = calib_ns();
    const double cpus = std::max(1u, std::thread::hardware_concurrency());
    std::printf("env.calib_ns: %.4f at start, %.4f at end (machine drift "
                "%+.1f%%); hypervisor steal %.2f%% of CPU time\n",
                calib_start, calib_end, (calib_end / calib_start - 1.0) * 100.0,
                (steal_seconds() - steal_start) /
                    (cpus * seconds_between(t0, now_ns())) * 100.0);
    if (trace)
      metrics.push_back({"env.calib_ns", (calib_start + calib_end) / 2.0, "ns"});
    for (const Metric& m : metrics) {
      if (!valid_metric_name(m.name) || !valid_unit(m.unit))
        throw std::runtime_error("malformed metric " + m.name);
      std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (trace && !spans.empty() && !tracer.write(spans))
      throw std::runtime_error("cannot write spans to " + spans);
    std::printf("%llu operations attempted, %llu failed; outputs %s\n",
                static_cast<unsigned long long>(s.tally.attempted),
                static_cast<unsigned long long>(s.tally.failed),
                s.tally.correct ? "correct" : "WRONG");
    std::printf("%s\n", result_line(s.tally.correct, s.tally.attempted,
                                    s.tally.failed, metrics, s.digests())
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "elsabench: %s\n", e.what());
    return 1;
  }
}
