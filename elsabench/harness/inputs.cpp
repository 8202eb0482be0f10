#include "inputs.hpp"

#include <istream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "elsa/model_io.hpp"
#include "simlog/logio.hpp"
#include "simlog/scenario.hpp"

namespace elsabench {

using namespace elsa;

namespace {

/// Read-only stream buffer over an existing string: the readers parse the
/// input bytes in place, without a copy into an istringstream.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

simlog::Trace spanning_trace(std::vector<simlog::LogRecord> records,
                             const topo::Topology& topology) {
  if (records.empty()) throw std::runtime_error("campaign has no records");
  simlog::Trace trace;
  trace.topology = topology;
  trace.t_begin_ms = records.front().time_ms;
  trace.t_end_ms = records.back().time_ms + 1;
  trace.records = std::move(records);
  return trace;
}

}  // namespace

Campaign make_campaign(const std::string& workload, std::uint64_t seed) {
  // BG/L: 28 days, ~1.2 M records (~1.03 M after the training days).
  // Mercury: its scenario's default 12 days, ~1.4 M records, so both
  // replays are about a million records long.
  if (workload != "bgl" && workload != "mercury")
    throw std::runtime_error("unknown workload " + workload);
  simlog::Scenario sc = workload == "bgl"
                            ? simlog::make_bluegene_scenario(seed, 28.0)
                            : simlog::make_mercury_scenario(seed, 12.0);
  simlog::Trace generated = sc.generator.generate(sc.config);

  Campaign c;
  c.workload = workload;
  c.topology = generated.topology;
  c.lines = generated.records.size();
  std::ostringstream log;
  simlog::write_ras_log(log, generated.records, generated.topology);
  c.log_text = std::move(log).str();

  // The model `elsa train --train-days 4` would write for this log.
  const simlog::Trace trace =
      spanning_trace(std::move(generated.records), c.topology);
  const std::int64_t train_end =
      trace.t_begin_ms + static_cast<std::int64_t>(kTrainDays * 86'400'000.0);
  const core::OfflineModel model = core::train_offline(
      trace, train_end, core::Method::Hybrid, core::PipelineConfig{});
  c.model_text = core::model_to_string(model);
  return c;
}

simlog::Trace parse_log(const std::string& text, const topo::Topology& topology,
                        std::size_t* malformed) {
  ViewBuf buf(text);
  std::istream in(&buf);
  simlog::ParsedLog parsed = simlog::read_ras_log(in, topology);
  if (malformed) *malformed = parsed.malformed_lines;
  return spanning_trace(std::move(parsed.records), topology);
}

core::OfflineModel parse_model(const std::string& text) {
  ViewBuf buf(text);
  std::istream in(&buf);
  return core::load_model(in);
}

}  // namespace elsabench
