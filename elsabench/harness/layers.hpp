// The traced mode: per-layer metrics, each timed from outside around calls
// into one layer's public functions on the run's own inputs, the ledger
// that sets them against the end-to-end costs, and the tracing overhead.
#pragma once

#include <vector>

#include "common.hpp"
#include "passes.hpp"

namespace elsabench {

/// One untraced and one traced round of the passes, then the layer probes.
/// Returns every per-layer metric but env.calib_ns (main adds it).
std::vector<Metric> run_traced(RunState& s, Tracer& tracer);

}  // namespace elsabench
