// Self-tests of the harness's own helpers: the percentile and sample-count
// rule, latency windows, the open-loop schedule and its bursts, the backlog
// rule, steal
// readings, the memory reader, metric names and number formatting.
// `elsabench --self-test` runs them; run.py runs them before every
// measurement.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace elsabench {

namespace {

int g_checks = 0;
int g_failures = 0;

void expect(bool ok, const char* what) {
  ++g_checks;
  if (ok) return;
  ++g_failures;
  std::printf("self-test FAILED: %s\n", what);
}

void test_percentiles() {
  std::vector<std::int64_t> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.50) == 50, "p50 of 1..100 is 50");
  expect(percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(percentile(v, 1.00) == 100, "p100 of 1..100 is 100");
  std::vector<double> one = {7.5};
  expect(percentile(one, 0.99) == 7.5, "any percentile of one sample");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of four");

  // A record never processed ranks above every measured latency.
  std::vector<std::int64_t> lat(999, 5);
  lat.push_back(std::numeric_limits<std::int64_t>::max());
  expect(percentile(lat, 0.99) == 5, "one miss in 1000 leaves p99");
  for (int i = 0; i < 10; ++i)
    lat.push_back(std::numeric_limits<std::int64_t>::max());
  expect(percentile(lat, 0.99) == std::numeric_limits<std::int64_t>::max(),
         "eleven misses in 1010 exceed any p99 limit");

  expect(percentile_supported(1000, 0.99), "1000 samples support p99");
  expect(!percentile_supported(999, 0.99), "999 samples do not support p99");
  expect(percentile_supported(20, 0.50), "20 samples support p50");
  expect(!percentile_supported(19, 0.50), "19 samples do not support p50");
  expect(!percentile_supported(0, 0.50), "no samples support nothing");
  expect(percentile_supported(100'000, 0.9999),
         "100k samples support p99.99");
  expect(!percentile_supported(99'999, 0.9999),
         "99 999 samples do not support p99.99");

  expect(window_slices(3, 4).empty(),
         "fewer values than windows gives no windows");
  using Slices = std::vector<std::pair<std::size_t, std::size_t>>;
  expect(window_slices(5, 2) == Slices{{0, 2}, {2, 5}},
         "the last window takes the remainder");
}

void test_schedule() {
  const std::vector<std::int64_t> t = {1000, 1000, 1010, 1020, 1020, 1040};
  const auto due = due_schedule(t, 5.0);
  expect(due.size() == t.size(), "one due instant per record");
  expect(due.front() == 0, "first record due at once");
  expect(due.back() == 1'000'000'000, "last due at (n-1)/rate = 1 s");
  expect(due[0] == due[1] && due[3] == due[4],
         "equal timestamps are due together (bursts kept)");
  expect(due[2] == 250'000'000, "trace time compressed by one factor");
  bool monotone = true;
  for (std::size_t i = 1; i < due.size(); ++i) monotone &= due[i] >= due[i - 1];
  expect(monotone, "due instants never go backwards");

  std::vector<std::int64_t> steady(200'001);
  for (std::size_t i = 0; i < steady.size(); ++i)
    steady[i] = static_cast<std::int64_t>(i) * 7;
  const auto d = due_schedule(steady, 200'000.0);
  expect(d.back() == 1'000'000'000, "200k records at 200k/s end at 1 s");
  expect(d[1] == 5'000, "an even log is due every 5 us at 200k/s");
  expect(due_schedule({5}, 10.0) == std::vector<std::int64_t>{0},
         "a single record is due at once");
}

void test_bursts() {
  using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;
  const std::vector<std::int64_t> due = {0,    5000, 5000, 5100, 5200,
                                         9000, 9500, 9600, 20000};
  expect(find_bursts(due, 3, 100) == Ranges{{1, 5}},
         "a run of records due close together is a burst");
  expect(find_bursts(due, 5, 100).empty(), "shorter runs are not bursts");
  expect(find_bursts(due, 2, 500) == Ranges{{1, 5}, {5, 8}},
         "runs split at a wider gap");
  expect(find_bursts(due, 9, 1'000'000) == Ranges{{0, 9}},
         "a run may reach the last record");
  expect(find_bursts({}, 1, 10).empty(), "no records, no bursts");
}

void test_backlog() {
  const std::int64_t cap = 8192;
  expect(!backlog_grows({}, cap), "no samples, no growth");
  expect(!backlog_grows({0, 10, 20000, 30000, 10, 0, 5, 2}, cap),
         "a burst that drains is queueing, not growth");
  expect(backlog_grows({0, 5000, 9000, 12000, 20000, 30000, 40000, 50000}, cap),
         "a backlog above capacity through the last quarter grows");
  expect(!backlog_grows({0, 5000, 9000, 12000, 20000, 30000, 40000, 100}, cap),
         "draining at the very end is not growth");
}

void test_steal() {
  const StealSamples s = {{100, 1.0}, {200, 1.0}, {300, 1.5}, {400, 2.0}};
  expect(stolen_between(s, 100, 200) == 0.0, "no steal between equal readings");
  expect(stolen_between(s, 150, 250) == 0.5,
         "a span is bounded by the readings around it");
  expect(stolen_between(s, 0, 1000) == 1.0, "spans past the ends clamp");
  expect(stolen_between({{5, 3.0}}, 0, 10) == 0.0, "one reading, no steal");
  {
    // A loaded host may keep the monitor thread off a CPU for a while:
    // wait for its second reading for up to two seconds.
    StealMonitor monitor;
    for (int i = 0; i < 200 && monitor.samples().size() < 2; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    expect(monitor.samples().size() >= 2, "the monitor samples while alive");
  }
}

void test_memory() {
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<char>* kept = nullptr;
  HeapUse use;
  const bool touched = with_heap(use, [&] {
    std::vector<char> big(kBytes, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    kept = new std::vector<char>(1000, 2);
    return big[kBytes - 1] == 1;
  });
  expect(touched && use.peak_mib >= 64.0 && use.peak_mib < 64.1,
         "a 64 MiB block counts 64 MiB of peak");
  expect(use.mean_mib > 8.0 && use.mean_mib < 64.1,
         "a block held for most of a pass weighs on its mean");
  delete kept;
  auto* spare = new std::vector<int>(1 << 16);
  (void)with_heap(use, [&] {
    delete spare;
    return 0;
  });
  expect(use.peak_mib == 0.0 && use.mean_mib <= 0.0,
         "freeing older blocks adds nothing");
  struct alignas(128) Wide {
    char bytes[1 << 20];
  };
  (void)with_heap(use, [] {
    const auto w = std::make_unique<Wide>();
    return w->bytes[0];
  });
  expect(use.peak_mib >= 1.0 && use.peak_mib < 1.01, "aligned blocks count too");
}

void test_names() {
  expect(valid_metric_name("serve_records_per_s"), "plain name");
  expect(valid_metric_name("env.calib_ns"), "dotted name");
  expect(valid_metric_name("9-lives"), "digit first, dash inside");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name("_x"), "underscore first");
  expect(!valid_metric_name("a b"), "space inside");
  expect(!valid_metric_name("p99/s"), "slash inside");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
  expect(valid_unit("1/s") && valid_unit("us") && valid_unit("%") &&
             valid_unit("MiB"),
         "units in use");
  expect(!valid_unit("") && !valid_unit(std::string(17, 's')) &&
             !valid_unit("\xc2\xb5s"),
         "empty, long and non-ASCII units");
}

void test_numbers() {
  for (const double v : {0.1, 1e-9, 123456789.123, 1000.0, 2.0 / 3.0})
    expect(std::strtod(format_number(v).c_str(), nullptr) == v,
           "numbers read back exactly");
  expect(format_number(1000.0) == "1000", "whole numbers print whole");
}

void test_tracer() {
  Tracer t;
  const auto a = t.begin("outer");
  const auto b = t.begin("inner", 42);
  t.end(b);
  t.end(a);
  { Scoped c(&t, "inner"); }
  t.count("records", 3);
  t.count("records", 4);
  expect(t.total_ns("outer") > 0 && t.total_ns("missing") == 0,
         "totals by name");
  expect(t.counter("records") == 7, "counts accumulate");
}

}  // namespace

bool run_selftests() {
  test_percentiles();
  test_schedule();
  test_bursts();
  test_backlog();
  test_steal();
  test_memory();
  test_names();
  test_numbers();
  test_tracer();
  std::printf("self-test: %d of %d checks passed\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0;
}

}  // namespace elsabench
