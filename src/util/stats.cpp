#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/thread_annotations.hpp"

namespace elsa::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

namespace {
double median_inplace(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const auto lo_it = std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (*lo_it + hi);
}
}  // namespace

double median(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  return median_inplace(v);
}

double mad(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = median(xs);
  std::vector<double> dev(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) dev[i] = std::abs(xs[i] - m);
  return median_inplace(dev);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double lgamma_mt(double x) {
#if defined(__GLIBC__) || defined(__linux__) || defined(__APPLE__)
  // The reentrant variant takes the sign out-parameter instead of writing
  // the global `signgam`.
  int sign;
  return ::lgamma_r(x, &sign);
#else
  // No lgamma_r on this libc: serialize the call so the shared `signgam`
  // write cannot race. Cold path — only exotic toolchains land here, and
  // p-value scans on them simply queue on this lock.
  // Rank kLeaf: p-value scans call in from under the bench cache and pool
  // locks, so this serializer must rank below everything.
  static Mutex mu("util::lgamma_mt::mu", lockrank::kLeaf);
  MutexLock lk(mu);
  // elsa-lint: allow(banned-call): the one audited std::lgamma site, made
  // safe by the serialization above; everything else goes through lgamma_mt.
  return std::lgamma(x);
#endif
}

double binomial_tail_pvalue(int n, int k, double p) {
  if (k <= 0) return 1.0;
  if (p <= 0.0) return k > 0 ? 0.0 : 1.0;
  if (p >= 1.0) return 1.0;
  if (k > n) return 0.0;
  // Sum P(X = i) for i in [k, n] in log space with lgamma.
  double tail = 0.0;
  for (int i = k; i <= n; ++i) {
    const double logp = lgamma_mt(n + 1.0) - lgamma_mt(i + 1.0) -
                        lgamma_mt(n - i + 1.0) +
                        static_cast<double>(i) * std::log(p) +
                        static_cast<double>(n - i) * std::log1p(-p);
    tail += std::exp(logp);
  }
  return std::min(1.0, tail);
}

}  // namespace elsa::util
