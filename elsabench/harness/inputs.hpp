// Untimed input preparation: a workload name and a seed become the bytes an
// ELSA deployment starts from — a RAS text log and a model file trained on
// its first days — and the readers that turn those bytes back into a trace
// and a model the way the `elsa` CLI does.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "elsa/pipeline.hpp"
#include "simlog/record.hpp"
#include "topology/topology.hpp"

namespace elsabench {

/// Leading days of every campaign that train the model (the paper's split,
/// and `elsa train --train-days 4`).
inline constexpr double kTrainDays = 4.0;

/// One workload's input bytes.
struct Campaign {
  std::string workload;
  elsa::topo::Topology topology = elsa::topo::Topology::cluster(1);
  std::string log_text;    ///< RAS text log of the whole campaign
  std::string model_text;  ///< hybrid model trained on the first kTrainDays
  std::size_t lines = 0;
};

/// Generate the workload's campaign from `seed` and render it. Deterministic
/// in (workload, seed).
Campaign make_campaign(const std::string& workload, std::uint64_t seed);

/// Parse RAS text into a trace exactly as `elsa train|serve` read a log:
/// the trace spans the first record to one past the last.
elsa::simlog::Trace parse_log(const std::string& text,
                              const elsa::topo::Topology& topology,
                              std::size_t* malformed);

/// Load a model from its text form (core::load_model).
elsa::core::OfflineModel parse_model(const std::string& text);

}  // namespace elsabench
