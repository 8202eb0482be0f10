#include "common.hpp"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <new>
#include <thread>

namespace elsabench {

std::int64_t process_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = -1;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!in || cpu != "cpu" || steal < 0) return -1.0;
  const long hz = sysconf(_SC_CLK_TCK);
  return static_cast<double>(steal) / static_cast<double>(hz > 0 ? hz : 100);
}

double stolen_between(const StealSamples& samples, std::int64_t t0_ns,
                      std::int64_t t1_ns) {
  if (samples.size() < 2) return 0.0;
  // Last reading at or before t0 (else the first), first at or after t1
  // (else the last).
  auto hi = std::lower_bound(
      samples.begin(), samples.end(), t1_ns,
      [](const std::pair<std::int64_t, double>& s, std::int64_t t) {
        return s.first < t;
      });
  if (hi == samples.end()) --hi;
  auto lo = std::upper_bound(
      samples.begin(), samples.end(), t0_ns,
      [](std::int64_t t, const std::pair<std::int64_t, double>& s) {
        return t < s.first;
      });
  if (lo != samples.begin()) --lo;
  return std::max(0.0, hi->second - lo->second);
}

struct StealMonitor::State {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;  ///< guarded by mu
  StealSamples samples;  ///< guarded by mu
  std::thread thread;  ///< last: starts once the rest exists
};

StealMonitor::StealMonitor() : state_(std::make_unique<State>()) {
  State* s = state_.get();
  s->samples.reserve(1u << 14);
  s->thread = std::thread([s] {
    for (;;) {
      const std::int64_t t = now_ns();
      const double stolen = steal_seconds();
      std::unique_lock<std::mutex> lk(s->mu);
      s->samples.emplace_back(t, stolen);
      if (s->stop) break;
      s->cv.wait_for(lk, std::chrono::milliseconds(5), [s] { return s->stop; });
    }
  });
}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_all();
  state_->thread.join();
}

StealSamples StealMonitor::samples() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->samples;
}

// -- statistics -------------------------------------------------------------

namespace {

/// Nearest-rank index of percentile `p` (0 < p <= 1) in a sorted sample of
/// size `n` (n >= 1).
std::size_t rank_index(std::size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n));
  const std::size_t rank = r < 1.0 ? 1 : static_cast<std::size_t>(r);
  return std::min(rank, n) - 1;
}

}  // namespace

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && n - 1 - rank_index(n, p) >= kTailSamples;
}

std::int64_t percentile(std::vector<std::int64_t>& v, double p) {
  const auto k = static_cast<std::ptrdiff_t>(rank_index(v.size(), p));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[static_cast<std::size_t>(k)];
}

double percentile(std::vector<double>& v, double p) {
  const auto k = static_cast<std::ptrdiff_t>(rank_index(v.size(), p));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[static_cast<std::size_t>(k)];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<std::pair<std::size_t, std::size_t>> window_slices(
    std::size_t n, std::size_t windows) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (windows == 0 || n < windows) return out;
  const std::size_t len = n / windows;
  for (std::size_t w = 0; w < windows; ++w)
    out.emplace_back(w * len, w + 1 == windows ? n : (w + 1) * len);
  return out;
}

// -- open-loop schedule -----------------------------------------------------

std::vector<std::int64_t> due_schedule(const std::vector<std::int64_t>& t_ms,
                                       double rate_per_s) {
  std::vector<std::int64_t> due(t_ms.size(), 0);
  if (t_ms.size() < 2 || rate_per_s <= 0.0) return due;
  const double span_ms = static_cast<double>(t_ms.back() - t_ms.front());
  if (span_ms <= 0.0) return due;
  const double ns_per_trace_ms = static_cast<double>(t_ms.size() - 1) * 1e9 /
                                 (rate_per_s * span_ms);
  for (std::size_t i = 0; i < t_ms.size(); ++i)
    due[i] = std::llround(static_cast<double>(t_ms[i] - t_ms.front()) *
                          ns_per_trace_ms);
  return due;
}

std::vector<std::pair<std::size_t, std::size_t>> find_bursts(
    const std::vector<std::int64_t>& due, std::size_t min_records,
    std::int64_t max_gap_ns) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= due.size(); ++i) {
    if (i < due.size() && due[i] - due[i - 1] <= max_gap_ns) continue;
    if (i - begin >= min_records) out.emplace_back(begin, i);
    begin = i;
  }
  return out;
}

bool backlog_grows(const std::vector<std::int64_t>& backlog,
                   std::int64_t limit) {
  if (backlog.empty()) return false;
  const std::size_t tail = std::max<std::size_t>(1, backlog.size() / 4);
  return std::all_of(backlog.end() - static_cast<std::ptrdiff_t>(tail),
                     backlog.end(),
                     [limit](std::int64_t b) { return b > limit; });
}

// -- memory -----------------------------------------------------------------

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void count_alloc(void* p) {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void count_free(void* p) {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

}  // namespace

struct HeapCount::State {
  std::atomic<bool> stop{false};
  double sum = 0.0;  ///< written by the reader thread until it is joined
  std::int64_t readings = 0;
  std::thread reader;
};

HeapCount::HeapCount() : state_(std::make_unique<State>()) {
  g_live.store(0);
  g_peak.store(0);
  State* s = state_.get();
  s->reader = std::thread([s] {
    while (!s->stop.load()) {
      s->sum += static_cast<double>(g_live.load(std::memory_order_relaxed));
      ++s->readings;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  g_counting.store(true);  // after the reader's own allocation
}

HeapCount::~HeapCount() {
  if (state_->reader.joinable()) (void)finish();
}

HeapUse HeapCount::finish() {
  state_->stop.store(true);
  state_->reader.join();
  g_counting.store(false);
  constexpr double kMiB = 1024.0 * 1024.0;
  HeapUse use;
  use.peak_mib = static_cast<double>(g_peak.load()) / kMiB;
  use.mean_mib = state_->readings > 0
                     ? state_->sum / static_cast<double>(state_->readings) / kMiB
                     : 0.0;
  return use;
}

// -- environment probe ------------------------------------------------------

double calib_ns() {
  // A dependent multiply/lookup chain over a 64 KiB table: integer ALU plus
  // L1/L2 latency, nothing the program under test can influence.
  constexpr std::size_t kTable = 1u << 14;
  constexpr std::int64_t kIters = 1 << 21;
  std::vector<std::uint32_t> table(kTable);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& t : table) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    t = static_cast<std::uint32_t>(x * 0x2545f4914f6cdd1dull >> 32);
  }
  std::vector<double> reps;
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t h = static_cast<std::uint64_t>(r) + 1;
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < kIters; ++i)
      h = h * 6364136223846793005ull + table[h >> 50];
    const std::int64_t t1 = now_ns();
    sink = sink + h;
    reps.push_back(static_cast<double>(t1 - t0) / static_cast<double>(kIters));
  }
  return median(reps);
}

// -- metric names and the result line ----------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::string format_number(double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string result_line(
    bool correct, std::uint64_t attempted, std::uint64_t failed,
    const std::vector<Metric>& metrics,
    const std::vector<std::pair<std::string, std::string>>& digests) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           format_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}, \"digests\": {";
  for (std::size_t i = 0; i < digests.size(); ++i)
    out += (i ? ", \"" : "\"") + digests[i].first + "\": \"" +
           digests[i].second + "\"";
  out += "}}";
  return out;
}

// -- spans ------------------------------------------------------------------

Tracer::Tracer() { spans_.reserve(1 << 16); }

std::int32_t Tracer::begin(const char* name, std::int64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto idx = static_cast<std::int32_t>(spans_.size());
  open_.push_back(idx);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return idx;
}

void Tracer::end(std::int32_t span) {
  const std::int64_t t = now_ns();
  spans_[static_cast<std::size_t>(span)].end_ns = t;
  const auto it = std::find(open_.rbegin(), open_.rend(), span);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::count(const std::string& name, double n) {
  for (auto& [k, v] : counts_)
    if (k == name) {
      v += n;
      return;
    }
  counts_.emplace_back(name, n);
}

double Tracer::total_ns(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) sum += static_cast<double>(s.end_ns - s.start_ns);
  return sum;
}

double Tracer::counter(const std::string& name) const {
  for (const auto& [k, v] : counts_)
    if (k == name) return v;
  return 0.0;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# span\tparent\tid\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.id << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  out << "# count\tname\tvalue\n";
  for (const auto& [k, v] : counts_)
    out << "count\t" << k << '\t' << format_number(v) << '\n';
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace elsabench

// The replaced global allocation functions behind HeapCount. The
// array and nothrow forms forward to these in libstdc++. Every block comes
// from malloc, so free is the matching release (GCC cannot see that once
// it inlines a replaced operator new into a caller).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  elsabench::count_alloc(p);
  return p;
}

void operator delete(void* p) noexcept {
  elsabench::count_free(p);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

void* operator new(std::size_t n, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(align), sizeof(void*)),
                     n == 0 ? 1 : n) != 0)
    throw std::bad_alloc();
  elsabench::count_alloc(p);
  return p;
}

void operator delete(void* p, std::align_val_t) noexcept {
  elsabench::count_free(p);
  std::free(p);
}

void operator delete(void* p, std::size_t, std::align_val_t align) noexcept {
  ::operator delete(p, align);
}
