// Idle cost: a service with no input must cost (almost) no CPU. Its shard
// workers and fan-in consumers wait in SpscRing::pop_wait and FanIn's
// consumer loop; both spin for at most util::EventCount::kSpinBudget and
// then park in the kernel until a producer publishes. A wait that polls,
// naps or yields instead shows up here as CPU time burnt while nothing
// happens. The measure is this process's own CPU time (getrusage), so it
// does not depend on what else runs on the machine.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <thread>

#include "advisor/service.hpp"
#include "elsa/pipeline.hpp"
#include "mining/service.hpp"
#include "topology/topology.hpp"

namespace {

using namespace elsa;

/// User plus system CPU time of this process so far, in seconds.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

TEST(IdleCost, IdleAdvisorAndMinerUseUnderTwoPercentOfACore) {
  const auto topology = topo::Topology::bluegene(4, 2, 8, 16);
  const core::OfflineModel empty_model;
  advisor::AdvisorServiceConfig acfg;
  acfg.serve.shards = 4;
  advisor::AdvisorService advisor(topology, empty_model, acfg);
  mining::MinerServiceConfig mcfg;
  mcfg.serve.shards = 4;
  mining::MinerService miner(topology, mcfg);

  // Settle: every worker and consumer has started, spun out and parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu = process_cpu_seconds() - cpu0;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // 8 shard workers, 2 fan-in consumers and 2 watchdogs, all idle.
  EXPECT_LT(cpu / wall, 0.02) << "idle services burnt " << cpu * 1e3
                              << " ms of CPU in " << wall * 1e3
                              << " ms of wall time";
}

}  // namespace
