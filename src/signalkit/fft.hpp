// Radix-2 FFT and FFT-based autocorrelation, used by the signal classifier
// to find dominant periodicities (paper Fig 1: periodic vs noise classes).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace elsa::sigkit {

/// In-place iterative radix-2 Cooley–Tukey. `data.size()` must be a power
/// of two (use next_pow2 + zero padding); throws otherwise.
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

std::size_t next_pow2(std::size_t n);

/// Biased autocorrelation r[k] for k in [0, max_lag], normalised so
/// r[0] == 1 (all-zero input yields all-zero output). Computed via FFT of
/// the mean-removed, zero-padded series — O(n log n).
std::vector<double> autocorrelation(const std::vector<double>& x,
                                    std::size_t max_lag);

}  // namespace elsa::sigkit
