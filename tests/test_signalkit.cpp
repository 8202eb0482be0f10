// Signal-toolkit tests: sampling, FFT (round-trip, correctness on known
// spectra), autocorrelation, and the periodic/noise/silent classifier on
// synthetic signals of each class.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "signalkit/classify.hpp"
#include "signalkit/fft.hpp"
#include "signalkit/signal.hpp"
#include "util/rng.hpp"

namespace {

using namespace elsa::sigkit;
using elsa::util::Rng;

TEST(SignalSet, BucketsEvents) {
  SignalSet set(0, 100'000, 10'000, 2);
  EXPECT_EQ(set.samples(), 10u);
  set.add_event(0, 5'000);
  set.add_event(0, 9'999);
  set.add_event(0, 10'000);
  set.add_event(1, 99'999);
  set.add_event(1, 100'000);  // out of range, dropped
  set.add_event(7, 0);        // unknown type, dropped
  EXPECT_FLOAT_EQ(set.signal(0).v[0], 2.0f);
  EXPECT_FLOAT_EQ(set.signal(0).v[1], 1.0f);
  EXPECT_FLOAT_EQ(set.signal(1).v[9], 1.0f);
}

TEST(Signal, SliceAndIndexing) {
  Signal s;
  s.t0_ms = 1000;
  s.dt_ms = 10;
  s.v = {0, 1, 2, 3, 4};
  EXPECT_EQ(s.time_of(2), 1020);
  EXPECT_EQ(s.index_of(1025), 2);
  EXPECT_EQ(s.index_of(0), 0);       // clamped
  EXPECT_EQ(s.index_of(999999), 4);  // clamped
  const auto sub = s.slice(1, 3);
  EXPECT_EQ(sub.t0_ms, 1010);
  ASSERT_EQ(sub.v.size(), 2u);
  EXPECT_FLOAT_EQ(sub.v[0], 1.0f);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> v(3);
  EXPECT_THROW(fft(v), std::invalid_argument);
}

TEST(Fft, RoundTripRestoresInput) {
  Rng rng(4);
  std::vector<std::complex<double>> v(256);
  for (auto& c : v) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = v;
  fft(v);
  fft(v, /*inverse=*/true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-9);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-9);
  }
}

TEST(Fft, SineSpectrumPeaksAtFrequencyBin) {
  const std::size_t n = 512;
  std::vector<double> x(n);
  const double k = 16;  // cycles over the window
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * k * static_cast<double>(i) /
                    static_cast<double>(n));
  std::vector<std::complex<double>> bins(x.begin(), x.end());
  fft(bins);
  // Power |X_k|^2 over the non-negative frequencies [0, n/2].
  std::size_t argmax = 0;
  for (std::size_t i = 1; i <= n / 2; ++i)
    if (std::norm(bins[i]) > std::norm(bins[argmax])) argmax = i;
  EXPECT_EQ(argmax, 16u);
}

TEST(Fft, AutocorrelationOfPeriodicSignalPeaksAtPeriod) {
  const std::size_t n = 2048, period = 24;
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; i += period) x[i] = 1.0;
  const auto acf = autocorrelation(x, 100);
  EXPECT_NEAR(acf[0], 1.0, 1e-9);
  EXPECT_GT(acf[period], 0.8);
  EXPECT_LT(acf[period / 2], 0.3);
}

TEST(Fft, AutocorrelationOfConstantIsZero) {
  std::vector<double> x(128, 5.0);
  const auto acf = autocorrelation(x, 10);
  for (double v : acf) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ---- classifier on the three synthetic classes of paper Fig 1 ----------

std::vector<double> synth_periodic(std::size_t n, std::size_t period,
                                   Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; i += period)
    x[std::min(n - 1, i + (rng.below(2)))] = 3.0 + rng.uniform(0, 1);
  return x;
}

std::vector<double> synth_noise(std::size_t n, Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (auto& v : x) v = static_cast<double>(rng.poisson(2.0));
  return x;
}

std::vector<double> synth_silent(std::size_t n, Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (int k = 0; k < 4; ++k) x[rng.below(n)] = 1.0;
  return x;
}

class ClassifierSeeds : public ::testing::TestWithParam<int> {};

TEST_P(ClassifierSeeds, ThreeClassesSeparate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto p = classify_signal(synth_periodic(4096, 30, rng));
  EXPECT_EQ(p.cls, SignalClass::Periodic) << "seed " << GetParam();
  EXPECT_NEAR(static_cast<double>(p.period), 30.0, 2.0);

  const auto nz = classify_signal(synth_noise(4096, rng));
  EXPECT_EQ(nz.cls, SignalClass::Noise);

  const auto s = classify_signal(synth_silent(4096, rng));
  EXPECT_EQ(s.cls, SignalClass::Silent);
  EXPECT_LT(s.occupancy, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierSeeds, ::testing::Range(1, 9));

TEST(Classifier, EmptySignalIsSilent) {
  const auto r = classify_signal(std::vector<double>{});
  EXPECT_EQ(r.cls, SignalClass::Silent);
}

TEST(Classifier, ToString) {
  EXPECT_STREQ(to_string(SignalClass::Periodic), "periodic");
  EXPECT_STREQ(to_string(SignalClass::Noise), "noise");
  EXPECT_STREQ(to_string(SignalClass::Silent), "silent");
}

}  // namespace
