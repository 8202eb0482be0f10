// Shared helpers of the ELSA benchmark harness: clocks, hypervisor steal,
// the percentile and sample-count rule, the open-loop due-instant schedule,
// the backlog rule, the memory reader, the calibration kernel, metric
// names, spans and the result line. Everything here is ELSA-independent and
// self-tested (selftest.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace elsabench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

/// Process CPU time (all threads), nanoseconds.
std::int64_t process_cpu_ns();

/// CPU time the hypervisor took from this machine's CPUs (the steal column
/// of /proc/stat, summed over CPUs), in seconds; -1 when not reported.
double steal_seconds();

/// (instant ns, steal_seconds()) readings, in time order.
using StealSamples = std::vector<std::pair<std::int64_t, double>>;

/// Steal seconds over [t0_ns, t1_ns], bounded from above: from the last
/// reading at or before t0 to the first at or after t1 (the nearest
/// readings when the span runs past either end). 0 with under 2 readings.
double stolen_between(const StealSamples& samples, std::int64_t t0_ns,
                      std::int64_t t1_ns);

/// Samples steal_seconds() every 5 ms on its own (mostly sleeping) thread
/// from construction until destruction, so a pass or a latency window can
/// be told whether the hypervisor took CPU time while it ran.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Readings so far (call between passes; copies under the monitor's lock).
  StealSamples samples() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// -- statistics -------------------------------------------------------------

/// A percentile is reported only when at least this many samples lie beyond
/// it, so it is never a statistic over a handful of rare events.
inline constexpr std::size_t kTailSamples = 10;

/// True when a sample of `n` has at least kTailSamples values beyond its
/// percentile `p`.
bool percentile_supported(std::size_t n, double p);

/// Nearest-rank percentile of `v` (reorders `v`; `v` must not be empty).
std::int64_t percentile(std::vector<std::int64_t>& v, double p);
double percentile(std::vector<double>& v, double p);

/// Median of a non-empty sample (the mean of the middle two for even sizes).
double median(std::vector<double> v);

/// Index ranges [begin, end) of `windows` equal consecutive slices of `n`
/// values (the last slice takes the remainder). Empty when n < windows.
std::vector<std::pair<std::size_t, std::size_t>> window_slices(
    std::size_t n, std::size_t windows);

// -- open-loop schedule -----------------------------------------------------

/// Due offsets, in ns from the start of an open-loop pass, for records with
/// the (non-decreasing) trace timestamps `t_ms`, replayed at a mean of
/// `rate_per_s` records/s. Trace time is compressed by one constant factor,
/// so the log's own burst shape is kept: records with equal timestamps are
/// due together, the first is due at 0 and the last at (n - 1) / rate.
std::vector<std::int64_t> due_schedule(const std::vector<std::int64_t>& t_ms,
                                       double rate_per_s);

/// Index ranges [begin, end) of the schedule's bursts: maximal runs of at
/// least `min_records` records, each due at most `max_gap_ns` after the one
/// before it.
std::vector<std::pair<std::size_t, std::size_t>> find_bursts(
    const std::vector<std::int64_t>& due, std::size_t min_records,
    std::int64_t max_gap_ns);

/// A pass failed to keep up when its backlog (records due but not yet
/// processed) never drained to `limit` or below during its last quarter:
/// the backlog grew until the end, so its latencies are not a measurement.
bool backlog_grows(const std::vector<std::int64_t>& backlog, std::int64_t limit);

// -- memory -----------------------------------------------------------------

/// Heap a pass held beyond what was in use when it started (blocks it
/// frees that were allocated before count against it), MiB.
struct HeapUse {
  double peak_mib = 0.0;
  double mean_mib = 0.0;  ///< over readings every millisecond
};

/// Counts heap bytes from construction until finish(): every operator new
/// and delete, in any thread, adds or takes its block's usable size (the
/// harness replaces the global operator new and delete; while nothing
/// counts they cost one relaxed load more than malloc and free). A thread
/// reads the count every millisecond for the mean.
class HeapCount {
 public:
  HeapCount();
  ~HeapCount();
  HeapCount(const HeapCount&) = delete;
  HeapCount& operator=(const HeapCount&) = delete;

  HeapUse finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Run `pass` with the heap counted.
template <class Pass>
auto with_heap(HeapUse& use, Pass&& pass) {
  HeapCount count;
  auto result = pass();
  use = count.finish();
  return result;
}

// -- environment probe ------------------------------------------------------

/// Fixed single-thread integer kernel that calls no ELSA code: ns per
/// iteration, median of five repetitions. Machine drift moves it; a change
/// to ELSA cannot.
double calib_ns();

/// calib_ns() of the reference machine the CPU-bound end-to-end samples
/// are scaled to (a 4-vCPU KVM guest in a quiet spell reads 3.3-4.0).
inline constexpr double kReferenceCalibNs = 4.0;

// -- metric names and the result line ----------------------------------------

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, '_', '.' or '-'.
bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
bool valid_unit(std::string_view unit);

/// Shortest text that reads back as exactly `v` (finite values only).
std::string format_number(double v);

std::string hex64(std::uint64_t v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The harness's last stdout line: one JSON object with the outcome counts,
/// the metrics and the output digests (run.py checks the digests against
/// the pinned ones and re-emits the line without them).
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics,
                        const std::vector<std::pair<std::string, std::string>>&
                            digests);

// -- spans ------------------------------------------------------------------

/// In-memory span and count recorder for the traced mode. Spans nest: a new
/// span's parent is the innermost open one. Nothing is written until
/// write() at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t id = -1;  ///< record index for per-record spans, else -1
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  Tracer();

  std::int32_t begin(const char* name, std::int64_t id = -1);
  void end(std::int32_t span);
  void count(const std::string& name, double n);

  /// Sum of the durations of every span called `name`, ns.
  double total_ns(std::string_view name) const;
  double counter(const std::string& name) const;

  /// Spans as tab-separated lines (index, parent, id, name, start, end)
  /// followed by the counts. False on an I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<std::pair<std::string, double>> counts_;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, std::int64_t id = -1)
      : t_(t), s_(t ? t->begin(name, id) : -1) {}
  ~Scoped() {
    if (t_) t_->end(s_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  std::int32_t s_;
};

/// The helpers' self-tests (selftest.cpp); true when all pass.
bool run_selftests();

}  // namespace elsabench
