// Streaming-monitor example: the deployment shape the paper's Fig 2
// describes. An offline phase learns the model; the online phase then
// consumes records one at a time — exactly as a syslog tap would deliver
// them — and prints alarms as they are issued, with locations and
// deadlines. The model stays frozen here; `elsa mine` shows the live
// update loop (the online miner publishing fresh models into the serving
// engines).
//
//   ./build/examples/online_monitor [duration_days] [seed]

#include <cstdlib>
#include <iostream>

#include "elsa/online.hpp"
#include "elsa/pipeline.hpp"
#include "simlog/scenario.hpp"
#include "util/ascii.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace elsa;

  const double days = argc > 1 ? std::atof(argv[1]) : 10.0;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  auto scenario = simlog::make_bluegene_scenario(seed, days, 80);
  const auto trace = scenario.generator.generate(scenario.config);
  const double train_days = std::min(scenario.train_days, days / 2.0);
  const std::int64_t train_end =
      trace.t_begin_ms + static_cast<std::int64_t>(train_days * 86400000.0);

  std::cout << "== ELSA online monitor ==\n";
  std::cout << "offline phase: learning from the first " << train_days
            << " days...\n";
  core::PipelineConfig cfg;
  auto model = core::train_offline(trace, train_end, core::Method::Hybrid, cfg);
  std::size_t predictive = 0;
  for (const auto& c : model.chains) predictive += c.predictive();
  std::cout << "  " << model.helo.size() << " event types, "
            << model.chains.size() << " correlation chains (" << predictive
            << " predictive)\n\n";

  core::EngineConfig ec = cfg.engine;
  ec.dt_ms = cfg.dt_ms;
  core::OnlineEngine engine(trace.topology, model.chains, model.profiles, ec);

  // Stream the test period; print alarms as they appear.
  std::size_t printed = 0, seen = 0;

  for (const auto& rec : trace.records) {
    if (rec.time_ms < train_end) continue;
    const auto tid = model.helo.classify(rec.message);
    engine.feed(rec, tid);

    // Drain newly issued predictions.
    while (seen < engine.predictions().size()) {
      const auto& p = engine.predictions()[seen++];
      if (printed < 12) {
        std::cout << "[" << util::human_duration(
                         static_cast<double>(p.issue_time_ms) / 1000.0)
                  << "] ALARM: '"
                  << model.helo.at(p.tmpl).text().substr(0, 56)
                  << "' expected in "
                  << util::human_duration(
                         static_cast<double>(p.lead_ms) / 1000.0);
        if (!p.nodes.empty())
          std::cout << " at " << trace.topology.code(p.nodes.front())
                    << " (scope " << topo::to_string(p.scope) << ")";
        std::cout << " [conf " << util::format_pct(p.confidence, 0) << "]\n";
        ++printed;
      }
    }
  }
  engine.finish(trace.t_end_ms);

  std::cout << "\n" << engine.predictions().size() << " alarms issued over "
            << util::format_double(days - train_days, 1)
            << " monitored days (" << printed << " shown), "
            << engine.stats().duplicates_suppressed
            << " duplicates suppressed\n";
  return 0;
}
