// Small numeric-statistics toolkit shared by the signal modules and the
// evaluation harness. All functions are pure and operate on spans so they
// compose with both offline vectors and online ring buffers.
#pragma once

#include <span>

namespace elsa::util {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 points.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Median by partial sort of a copy; 0 for an empty span. For even sizes
/// returns the mean of the two central order statistics.
double median(std::span<const double> xs);

/// Median absolute deviation around the median, the robust scale estimate
/// the outlier detector uses. Returns raw MAD (no 1.4826 normal-consistency
/// factor); callers that need sigma-equivalent scale multiply themselves.
double mad(std::span<const double> xs);

/// p-th percentile (p in [0,100]) with linear interpolation between order
/// statistics; 0 for an empty span.
double percentile(std::span<const double> xs, double p);

/// Thread-safe log-gamma. glibc's lgamma(3) writes the process-global
/// `signgam` on every call — a data race whenever two pool workers compute
/// p-values concurrently (a real TSan hit in binomial_tail_pvalue, PR 1).
/// This is the project's only sanctioned log-gamma entry point; elsa-lint's
/// `banned-call` rule rejects direct std::lgamma use anywhere else.
double lgamma_mt(double x);

/// Exact binomial upper-tail p-value P(X >= k) for X ~ Binomial(n, p),
/// computed in log space. Used to judge whether an alignment count could
/// be coincidence given the chance hit probability.
double binomial_tail_pvalue(int n, int k, double p);

}  // namespace elsa::util
