// Online outlier-detector tests: the counting sliding median (property
// checked against the generic structure), spike/occurrence/dropout
// detection, the replacement strategy under sustained bursts (paper Fig 3),
// and episode debouncing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "elsa/outlier.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace elsa::core;
using elsa::util::Rng;

class CountingMedianProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CountingMedianProperty, MatchesLowerMedianReference) {
  const std::size_t window = GetParam();
  Rng rng(window + 555);
  CountingSlidingMedian fast(window);
  std::vector<double> xs;
  for (int i = 0; i < 1500; ++i) {
    const double x = std::floor(rng.uniform(0.0, 30.0));
    xs.push_back(x);
    fast.push(x);
    // Reference: the lower median (order statistic at (n-1)/2) over the
    // trailing window — the convention CountingSlidingMedian implements.
    const std::size_t lo = xs.size() >= window ? xs.size() - window : 0;
    std::vector<double> w(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                          xs.end());
    std::sort(w.begin(), w.end());
    ASSERT_DOUBLE_EQ(fast.median(), w[(w.size() - 1) / 2]) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, CountingMedianProperty,
                         ::testing::Values(1, 3, 8, 63, 512));

TEST(CountingMedian, ClampsLargeValues) {
  CountingSlidingMedian m(3);
  m.push(1e9);
  m.push(1e9);
  m.push(1e9);
  EXPECT_DOUBLE_EQ(m.median(), CountingSlidingMedian::kMaxValue);
  m.push(-5.0);
  EXPECT_GE(m.median(), 0.0);
}

SignalProfile silent_profile() {
  SignalProfile p;
  p.cls = elsa::sigkit::SignalClass::Silent;
  p.spike_delta = 0.5;
  return p;
}

SignalProfile noise_profile(double median, double delta) {
  SignalProfile p;
  p.cls = elsa::sigkit::SignalClass::Noise;
  p.median = median;
  p.spike_delta = delta;
  return p;
}

SignalProfile periodic_profile(std::size_t period, double mean) {
  SignalProfile p;
  p.cls = elsa::sigkit::SignalClass::Periodic;
  p.median = mean;
  p.mean = mean;
  p.period = period;
  p.spike_delta = 4.0;
  p.dropout_window = 3 * period;
  p.dropout_min_count = 0.25 * mean * static_cast<double>(p.dropout_window);
  return p;
}

TEST(OnlineDetector, SilentSignalAnyOccurrenceIsOutlier) {
  OnlineDetector det(silent_profile(), 100);
  for (int i = 0; i < 50; ++i) {
    const auto r = det.feed(0.0);
    ASSERT_EQ(r.kind, OutlierKind::None);
  }
  const auto r = det.feed(1.0);
  EXPECT_EQ(r.kind, OutlierKind::Occurrence);
  EXPECT_TRUE(r.onset);
}

TEST(OnlineDetector, NoiseSpikeDetectedAboveDelta) {
  OnlineDetector det(noise_profile(2.0, 5.0), 100);
  for (int i = 0; i < 60; ++i) det.feed(2.0);
  EXPECT_EQ(det.feed(4.0).kind, OutlierKind::None);   // within delta
  EXPECT_EQ(det.feed(20.0).kind, OutlierKind::Spike); // way above
}

TEST(OnlineDetector, DebounceReportsOneOnsetPerEpisode) {
  OnlineDetector det(noise_profile(1.0, 3.0), 100);
  for (int i = 0; i < 30; ++i) det.feed(1.0);
  int onsets = 0;
  for (int i = 0; i < 5; ++i) {
    const auto r = det.feed(50.0);
    EXPECT_EQ(r.kind, OutlierKind::Spike);
    onsets += r.onset;
  }
  EXPECT_EQ(onsets, 1);
  // Episode ends, a new one starts.
  det.feed(1.0);
  EXPECT_TRUE(det.feed(50.0).onset);
}

TEST(OnlineDetector, NoDebounceReportsEveryBucket) {
  DetectorOptions opts;
  opts.debounce = false;
  OnlineDetector det(noise_profile(1.0, 3.0), 100, opts);
  for (int i = 0; i < 30; ++i) det.feed(1.0);
  int onsets = 0;
  for (int i = 0; i < 5; ++i) onsets += det.feed(50.0).onset;
  EXPECT_EQ(onsets, 5);
}

TEST(OnlineDetector, ReplacementKeepsBaselineDuringLongBurst) {
  // With replacement, a long fault burst cannot drag the median up; the
  // detector keeps flagging (paper's replacement strategy). Small window so
  // the no-replacement variant saturates quickly.
  DetectorOptions with, without;
  without.replacement = false;
  OnlineDetector a(noise_profile(1.0, 3.0), 16, with);
  OnlineDetector b(noise_profile(1.0, 3.0), 16, without);
  for (int i = 0; i < 20; ++i) {
    a.feed(1.0);
    b.feed(1.0);
  }
  int flagged_with = 0, flagged_without = 0;
  for (int i = 0; i < 40; ++i) {
    flagged_with += a.feed(30.0).kind == OutlierKind::Spike;
    flagged_without += b.feed(30.0).kind == OutlierKind::Spike;
  }
  EXPECT_EQ(flagged_with, 40);          // baseline intact
  EXPECT_LT(flagged_without, 30);       // burst swallowed its own baseline
}

TEST(OnlineDetector, DropoutDetectedWhenPeriodicGoesQuiet) {
  const auto prof = periodic_profile(/*period=*/3, /*mean=*/1.0);
  OnlineDetector det(prof, 100);
  // Healthy phase: one event every 3 buckets.
  for (int i = 0; i < 60; ++i) det.feed(i % 3 == 0 ? 3.0 : 0.0);
  // Silence.
  bool dropout = false;
  for (int i = 0; i < 12; ++i) {
    const auto r = det.feed(0.0);
    if (r.kind == OutlierKind::Dropout) dropout = true;
  }
  EXPECT_TRUE(dropout);
}

TEST(OnlineDetector, DropoutOnsetDebounced) {
  const auto prof = periodic_profile(3, 1.0);
  OnlineDetector det(prof, 100);
  for (int i = 0; i < 60; ++i) det.feed(i % 3 == 0 ? 3.0 : 0.0);
  int onsets = 0;
  for (int i = 0; i < 20; ++i) onsets += det.feed(0.0).onset;
  EXPECT_EQ(onsets, 1);
}

TEST(OnlineDetector, DropoutRecoversWhenTrafficReturns) {
  const auto prof = periodic_profile(3, 1.0);
  OnlineDetector det(prof, 100);
  for (int i = 0; i < 60; ++i) det.feed(i % 3 == 0 ? 3.0 : 0.0);
  for (int i = 0; i < 20; ++i) det.feed(0.0);
  // Traffic resumes; after a window of healthy counts no dropout reported.
  OutlierKind last = OutlierKind::Dropout;
  for (int i = 0; i < 30; ++i) last = det.feed(i % 3 == 0 ? 3.0 : 0.0).kind;
  EXPECT_NE(last, OutlierKind::Dropout);
}

TEST(OnlineDetector, KindNames) {
  EXPECT_STREQ(to_string(OutlierKind::Spike), "spike");
  EXPECT_STREQ(to_string(OutlierKind::Dropout), "dropout");
  EXPECT_STREQ(to_string(OutlierKind::Occurrence), "occurrence");
  EXPECT_STREQ(to_string(OutlierKind::None), "none");
}

}  // namespace
