#include "signalkit/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace elsa::sigkit {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  if (n == 0) return;
  if ((n & (n - 1)) != 0)
    throw std::invalid_argument("fft: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

namespace {
double mean_of(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}
}  // namespace

std::vector<double> autocorrelation(const std::vector<double>& x,
                                    std::size_t max_lag) {
  const std::size_t n = x.size();
  max_lag = std::min(max_lag, n > 0 ? n - 1 : 0);
  std::vector<double> r(max_lag + 1, 0.0);
  if (n == 0) return r;

  const double m = mean_of(x);
  // Zero-pad to 2n to make circular convolution equal linear correlation.
  const std::size_t nfft = next_pow2(2 * n);
  std::vector<std::complex<double>> buf(nfft, {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) buf[i] = {x[i] - m, 0.0};
  fft(buf);
  for (auto& c : buf) c = c * std::conj(c);
  fft(buf, /*inverse=*/true);

  const double r0 = buf[0].real();
  if (r0 <= 0.0) return r;  // constant signal
  for (std::size_t k = 0; k <= max_lag; ++k) r[k] = buf[k].real() / r0;
  return r;
}

}  // namespace elsa::sigkit
