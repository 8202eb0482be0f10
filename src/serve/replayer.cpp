#include "serve/replayer.hpp"

#include <chrono>
#include <thread>

#include "faultinject/injector.hpp"
#include "serve/service.hpp"

namespace elsa::serve {

std::size_t TraceReplayer::replay(
    const std::function<bool(const simlog::LogRecord&)>& sink) const {
  using Clock = std::chrono::steady_clock;
  const bool paced = opt_.speedup > 0.0;
  const Clock::time_point wall0 = Clock::now();
  std::int64_t trace0_ms = 0;
  bool first = true;
  std::size_t delivered = 0;

  for (const simlog::LogRecord& rec : trace_->records) {
    if (rec.time_ms < opt_.from_ms || rec.time_ms >= opt_.until_ms) continue;
    if (paced) {
      if (first) {
        trace0_ms = rec.time_ms;
        first = false;
      }
      const double elapsed_ms =
          static_cast<double>(rec.time_ms - trace0_ms) / opt_.speedup;
      const auto deadline =
          wall0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(elapsed_ms));
      if (deadline > Clock::now()) std::this_thread::sleep_until(deadline);
    }
    if (!sink(rec)) break;
    ++delivered;
  }
  return delivered;
}

std::size_t TraceReplayer::replay_into(
    PredictionService& service, faultinject::FaultInjector* inject) const {
  std::size_t accepted = 0;
  bool closed = false;

  // Deliver one record under the service's OverflowPolicy, with the
  // bounded retry loop for kShed refusals (the only policy that refuses).
  // Returns false only when the service has closed.
  const auto deliver = [&](const simlog::LogRecord& rec) {
    SubmitResult r = service.submit_result(rec, /*blocking=*/true);
    std::int64_t backoff_ms = opt_.retry_backoff_ms;
    for (int attempt = 0; r == SubmitResult::kShed && attempt < opt_.max_retries;
         ++attempt) {
      service.note_retry();
      if (backoff_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
      r = service.submit_result(rec, /*blocking=*/true);
    }
    if (r == SubmitResult::kClosed) return false;
    if (r == SubmitResult::kQueued) ++accepted;
    return true;  // shed (even after retries) never aborts the feed
  };

  std::vector<simlog::LogRecord> scratch;
  replay([&](const simlog::LogRecord& rec) {
    if (!inject) return deliver(rec);
    scratch.clear();
    inject->ingest(rec, scratch);
    for (const simlog::LogRecord& r : scratch)
      if (!deliver(r)) {
        closed = true;
        return false;
      }
    return true;
  });

  if (inject && !closed) {
    // End of stream: release every record the reorder fault held back.
    scratch.clear();
    inject->flush(scratch);
    for (const simlog::LogRecord& r : scratch)
      if (!deliver(r)) break;
  }
  return accepted;
}

}  // namespace elsa::serve
