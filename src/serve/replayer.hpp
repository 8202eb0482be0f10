// Trace replay: drives the serving layer the way a live syslog feed would.
//
// Streams a `simlog::Trace`'s records, in time order, at a configurable
// multiple of real time — 1.0 reproduces the original arrival cadence,
// 3600 compresses an hour into a second, and <= 0 means "as fast as
// possible" (the throughput-bench mode). Pacing uses absolute deadlines
// against a steady clock, so delivery cannot drift even when individual
// records are delayed by backpressure.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "simlog/record.hpp"

namespace elsa::faultinject {
class FaultInjector;
}

namespace elsa::serve {

class PredictionService;

struct ReplayOptions {
  /// Trace-time seconds delivered per wall-clock second; <= 0 replays as
  /// fast as possible.
  double speedup = 0.0;
  /// Only records with time_ms in [from_ms, until_ms) are delivered.
  std::int64_t from_ms = std::numeric_limits<std::int64_t>::min();
  std::int64_t until_ms = std::numeric_limits<std::int64_t>::max();
  /// On a shed result, re-submit up to this many times with doubling
  /// backoff (starting at retry_backoff_ms) before giving the record up.
  /// Each re-submission is counted in ServeMetrics::retries. 0 = give up
  /// immediately (the pre-PR-4 behaviour).
  int max_retries = 0;
  std::int64_t retry_backoff_ms = 1;
};

class TraceReplayer {
 public:
  /// The trace must outlive the replayer.
  TraceReplayer(const simlog::Trace& trace, ReplayOptions opt = {})
      : trace_(&trace), opt_(opt) {}

  /// Stream records into `sink`; a false return from the sink aborts the
  /// replay (e.g. the service was stopped). Blocks the calling thread for
  /// the paced duration. Returns records delivered (sink invocations).
  std::size_t replay(
      const std::function<bool(const simlog::LogRecord&)>& sink) const;

  /// Convenience: stream into a PredictionService through submit(), whose
  /// OverflowPolicy decides what a full ring does (a kShed refusal is
  /// retried per `opt.max_retries`). When `inject`
  /// is non-null every replayed record first passes through the fault
  /// injector, which may drop, duplicate, corrupt, reorder or skew it —
  /// the chaos-soak ingress path. Returns records accepted by the service.
  std::size_t replay_into(PredictionService& service,
                          faultinject::FaultInjector* inject = nullptr) const;

 private:
  const simlog::Trace* trace_;
  ReplayOptions opt_;
};

}  // namespace elsa::serve
