// Deterministic interleaving explorer: the dynamic half of the lock-free
// auditing layer (the static half is elsa-lint's atomics-protocol pass,
// tools/lint_rules.cpp — see DESIGN.md §15).
//
// The production contract is a single hook, util::sched_point(). Lock-free
// structures (serve::SpscRing, util::EventCount, serve::StripedCounter,
// serve::RcuHub) call it immediately before every atomic access. Outside the harness it
// compiles to an empty inline function — zero code after inlining, so the
// serve hot path is untouched (the bench guard in ISSUE 8 holds by
// construction). Under ELSA_INTERLEAVE_HARNESS the hook becomes a yield
// point of a cooperative virtual-thread scheduler, which turns every
// atomic access into a schedule decision the explorer controls:
//
//   * Virtual threads are real std::threads, but exactly one runs at a
//     time: a token (Engine::running_) is handed from the scheduler to one
//     thread and back at each sched_point(). All hand-offs go through one
//     util::Mutex + CondVar, so the exploration itself is data-race-free
//     (TSan-clean) and — because the only scheduling nondeterminism is the
//     Decider's choice — the same decision sequence replays the same
//     execution, bit for bit.
//   * Deciders: RandomDecider (seeded xoshiro256** random walk — same seed,
//     same schedule), ExhaustiveDecider (depth-first enumeration of every
//     schedule within a preemption bound, CHESS-style: continuing the
//     running thread is free, switching away from a still-runnable thread
//     spends one preemption), ReplayDecider (re-run a recorded trace; the
//     failure reproducer).
//   * A virtual thread must never block in the kernel: it would keep the
//     token and stall every other virtual thread. So the one park on the
//     data path, util::EventCount::commit_wait, polls its state at
//     sched_point()s in harness builds until a notify moves it.
//   * A body that spins forever under a hostile schedule (e.g. a blocking
//     push whose consumer is never scheduled) is cut off at max_steps: the
//     engine flips to free-running mode (yields become no-ops, real
//     concurrency finishes the trial) and the schedule is counted in
//     Result::diverged. Exhaustive suites should therefore use only
//     non-blocking operations, whose bodies terminate under every schedule
//     (for a park: EventCount's prepare_wait / signaled split).
//
// ODR warning: sched_point() is an inline function whose body differs with
// ELSA_INTERLEAVE_HARNESS. A binary must be all-harness or all-production:
// tests/test_interleave.cpp links only GTest (never elsa_core/elsa_serve),
// and every structure it explores is header-only, so the two definitions
// never meet in one link. Keep it that way.
#pragma once

#if defined(ELSA_INTERLEAVE_HARNESS)
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#endif

namespace elsa::util {

#if !defined(ELSA_INTERLEAVE_HARNESS)

/// Production build: scheduling hook compiles away entirely.
inline void sched_point() {}

#else

namespace interleave {

/// Scheduling strategy: given the ids of the virtual threads that have not
/// yet finished, the id that ran the previous step (-1 at step 0), and the
/// step index, choose who runs next. Called with the engine lock held; must
/// be pure computation.
class Decider {
 public:
  virtual ~Decider() = default;
  virtual int pick(const std::vector<int>& enabled, int prev,
                   std::size_t step) = 0;
};

/// Seeded random walk. Deterministic: the same seed yields the same
/// schedule for the same (deterministic) trial bodies.
class RandomDecider final : public Decider {
 public:
  explicit RandomDecider(std::uint64_t seed) : rng_(seed) {}
  int pick(const std::vector<int>& enabled, int /*prev*/,
           std::size_t /*step*/) override {
    return enabled[static_cast<std::size_t>(rng_.below(enabled.size()))];
  }

 private:
  util::Rng rng_;
};

/// Re-run a recorded trace. Past the end of the trace (or if the trace
/// names a finished thread — only possible for a nondeterministic trial)
/// it falls back to the exhaustive default policy: continue the previous
/// thread, else the lowest-numbered enabled one.
class ReplayDecider final : public Decider {
 public:
  explicit ReplayDecider(std::vector<int> trace) : trace_(std::move(trace)) {}
  int pick(const std::vector<int>& enabled, int prev,
           std::size_t step) override {
    if (step < trace_.size()) {
      for (int id : enabled)
        if (id == trace_[step]) return id;
    }
    for (int id : enabled)
      if (id == prev) return id;
    return enabled.front();
  }

 private:
  std::vector<int> trace_;
};

/// Depth-first enumeration of every schedule within a preemption bound
/// (CHESS-style iterative context bounding). One instance persists across
/// runs: each run replays the prefix chosen by the last advance() and then
/// extends it with the default policy (keep running the current thread;
/// when it finishes, the lowest-numbered enabled one — forced switches are
/// free). advance() backtracks to the deepest decision with an untried
/// alternative whose preemption cost still fits the bound; false means the
/// bounded schedule space is exhausted.
class ExhaustiveDecider final : public Decider {
 public:
  explicit ExhaustiveDecider(std::size_t preemption_bound)
      : bound_(preemption_bound) {}

  int pick(const std::vector<int>& enabled, int prev,
           std::size_t step) override {
    if (step < stack_.size()) {
      // Replaying the committed prefix. The trial is deterministic, so the
      // recorded choice is enabled; fall back defensively if not.
      const int want = stack_[step].chosen;
      for (int id : enabled)
        if (id == want) return id;
    } else {
      Node node;
      node.enabled = enabled;
      node.prev = prev;
      node.chosen = default_of(node);
      // The default continuation never spends a preemption: either it
      // continues `prev`, or `prev` just finished and the switch is forced.
      node.preempts = stack_.empty() ? 0 : stack_.back().preempts;
      stack_.push_back(std::move(node));
      return stack_.back().chosen;
    }
    for (int id : enabled)
      if (id == prev) return id;
    return enabled.front();
  }

  /// Move to the next unexplored schedule prefix. False when done.
  bool advance() {
    while (!stack_.empty()) {
      Node& node = stack_.back();
      const std::size_t before =
          stack_.size() >= 2 ? stack_[stack_.size() - 2].preempts : 0;
      const int def = default_of(node);
      bool prev_enabled = false;
      for (int id : node.enabled)
        if (id == node.prev) prev_enabled = true;
      while (node.tried < node.enabled.size()) {
        const int cand = node.enabled[node.tried++];
        if (cand == def) continue;  // the default was run when first visited
        const bool preempt =
            node.prev != -1 && prev_enabled && cand != node.prev;
        if (preempt && before + 1 > bound_) continue;
        node.chosen = cand;
        node.preempts = before + (preempt ? 1 : 0);
        return true;
      }
      stack_.pop_back();
    }
    return false;
  }

 private:
  struct Node {
    std::vector<int> enabled;
    int prev = -1;
    int chosen = -1;
    std::size_t tried = 0;     ///< alternatives consumed, in enabled order
    std::size_t preempts = 0;  ///< preemptions spent up to and incl. chosen
  };

  static int default_of(const Node& node) {
    for (int id : node.enabled)
      if (id == node.prev) return id;
    return node.enabled.front();
  }

  std::size_t bound_;
  std::vector<Node> stack_;
};

/// The cooperative scheduler for one trial execution. Registered bodies run
/// on real threads, serialized by a hand-off token: exactly one body makes
/// progress at a time, and control returns to the scheduler at every
/// sched_point() the body reaches.
class Engine {
 public:
  explicit Engine(Decider& decider) : decider_(decider) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void add(std::function<void()> body) { bodies_.push_back(std::move(body)); }

  struct RunResult {
    std::vector<int> trace;  ///< thread id chosen at each step
    bool diverged = false;   ///< hit max_steps; finished in free-run mode
  };

  RunResult run(std::size_t max_steps) {
    const int n = static_cast<int>(bodies_.size());
    RunResult out;
    {
      util::MutexLock lk(mu_);
      finished_.assign(static_cast<std::size_t>(n), 0);
      running_ = kScheduler;
      free_run_ = false;
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int id = 0; id < n; ++id)
      threads.emplace_back([this, id] { thread_main(id); });
    {
      util::MutexLock lk(mu_);
      int prev = -1;
      std::vector<int> enabled;
      for (;;) {
        enabled.clear();
        for (int id = 0; id < n; ++id)
          if (finished_[static_cast<std::size_t>(id)] == 0)
            enabled.push_back(id);
        if (enabled.empty()) break;
        if (out.trace.size() >= max_steps) {
          out.diverged = true;
          free_run_ = true;  // let the survivors finish natively
          cv_.notify_all();
          break;
        }
        const int next = decider_.pick(enabled, prev, out.trace.size());
        out.trace.push_back(next);
        prev = next;
        running_ = next;
        cv_.notify_all();
        while (running_ != kScheduler) cv_.wait(mu_);
      }
    }
    for (auto& t : threads) t.join();
    return out;
  }

  /// Called (via sched_point) by the running virtual thread: hand the token
  /// back and sleep until scheduled again.
  void yield(int id) {
    util::MutexLock lk(mu_);
    if (free_run_) return;
    running_ = kScheduler;
    cv_.notify_all();
    while (running_ != id && !free_run_) cv_.wait(mu_);
  }

 private:
  static constexpr int kScheduler = -1;

  void thread_main(int id);  // defined after the thread-local hooks below

  Decider& decider_;
  std::vector<std::function<void()>> bodies_;
  util::Mutex mu_;
  util::CondVar cv_;
  int running_ ELSA_GUARDED_BY(mu_) = kScheduler;
  bool free_run_ ELSA_GUARDED_BY(mu_) = false;
  std::vector<char> finished_ ELSA_GUARDED_BY(mu_);
};

namespace detail {
/// Identity of the current virtual thread; null/-1 on ordinary threads
/// (including the controlling thread that runs setup and checks), which
/// makes their sched_point() calls no-ops.
inline thread_local Engine* g_engine = nullptr;
inline thread_local int g_vthread = -1;
}  // namespace detail

inline void Engine::thread_main(int id) {
  detail::g_engine = this;
  detail::g_vthread = id;
  {
    util::MutexLock lk(mu_);
    while (running_ != id && !free_run_) cv_.wait(mu_);
  }
  bodies_[static_cast<std::size_t>(id)]();
  {
    util::MutexLock lk(mu_);
    finished_[static_cast<std::size_t>(id)] = 1;
    running_ = kScheduler;
    cv_.notify_all();
  }
  detail::g_engine = nullptr;
  detail::g_vthread = -1;
}

/// One schedule-exploration trial: register the concurrent bodies and the
/// invariant checks the driver runs (on the controlling thread) after all
/// bodies have joined. A check returns "" when the invariant holds, else a
/// description of the violation.
struct Trial {
  void thread(std::function<void()> body) {
    bodies.push_back(std::move(body));
  }
  void check(std::function<std::string()> inv) {
    checks.push_back(std::move(inv));
  }
  std::vector<std::function<void()>> bodies;
  std::vector<std::function<std::string()>> checks;
};

/// Trial factory: called once per schedule so every execution starts from
/// fresh state (capture shared structures in shared_ptrs inside the setup).
using Setup = std::function<void(Trial&)>;

struct Options {
  std::size_t max_steps = 50000;      ///< divergence cutoff per schedule
  std::size_t preemption_bound = 2;   ///< exhaustive mode only
  std::size_t max_schedules = 20000;  ///< exhaustive enumeration cap
};

struct Result {
  std::size_t schedules = 0;  ///< schedules executed
  std::size_t distinct = 0;   ///< distinct traces observed (FNV-1a hashed)
  std::size_t diverged = 0;   ///< schedules cut off at max_steps
  bool exhausted = false;     ///< exhaustive: bounded space fully covered
  bool failed = false;
  std::string failure;         ///< first check's violation message
  std::uint64_t fail_seed = 0;  ///< per-round seed of the failing schedule
  std::size_t fail_round = 0;
  std::vector<int> fail_trace;  ///< replayable via interleave::replay()

  /// The reproducer line a failing test prints: feed fail_trace back
  /// through replay() (or re-run explore_random with fail_seed, 1 round).
  std::string replay_line() const {
    std::string s = "interleave replay: seed=" + std::to_string(fail_seed) +
                    " round=" + std::to_string(fail_round) + " trace=";
    for (std::size_t i = 0; i < fail_trace.size(); ++i) {
      if (i != 0) s += ',';
      s += std::to_string(fail_trace[i]);
    }
    return s;
  }
};

inline std::uint64_t hash_trace(const std::vector<int>& trace) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (int v : trace) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Decorrelate per-round seeds from the suite seed (splitmix64 step), so
/// round r is reproducible in isolation: explore_random(setup, seed, r+1)
/// and a 1-round run with the derived seed agree on schedule r.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t round) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (round + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace detail {
struct RunOutcome {
  std::vector<int> trace;
  bool diverged = false;
  std::string failure;
};

inline RunOutcome run_one(const Setup& setup, Decider& decider,
                          std::size_t max_steps) {
  Trial trial;
  setup(trial);
  Engine engine(decider);
  for (auto& body : trial.bodies) engine.add(std::move(body));
  Engine::RunResult r = engine.run(max_steps);
  RunOutcome out;
  out.trace = std::move(r.trace);
  out.diverged = r.diverged;
  for (const auto& check : trial.checks) {
    std::string msg = check();
    if (!msg.empty()) {
      out.failure = std::move(msg);
      break;
    }
  }
  return out;
}
}  // namespace detail

/// Seeded random walk over `rounds` schedules. Stops at the first failing
/// schedule (recorded as a replayable seed + trace).
inline Result explore_random(const Setup& setup, std::uint64_t seed,
                             std::size_t rounds, Options opt = {}) {
  Result res;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t rseed = mix_seed(seed, round);
    RandomDecider decider(rseed);
    detail::RunOutcome out = detail::run_one(setup, decider, opt.max_steps);
    ++res.schedules;
    if (out.diverged) ++res.diverged;
    seen.insert(hash_trace(out.trace));
    if (!out.failure.empty()) {
      res.failed = true;
      res.failure = std::move(out.failure);
      res.fail_seed = rseed;
      res.fail_round = round;
      res.fail_trace = std::move(out.trace);
      break;
    }
  }
  res.distinct = seen.size();
  return res;
}

/// Bounded-exhaustive enumeration: every schedule reachable with at most
/// opt.preemption_bound preemptions, up to opt.max_schedules. Use only
/// with non-blocking trial bodies (see the divergence note in the file
/// comment).
inline Result explore_exhaustive(const Setup& setup, Options opt = {}) {
  Result res;
  std::unordered_set<std::uint64_t> seen;
  ExhaustiveDecider decider(opt.preemption_bound);
  for (;;) {
    if (res.schedules >= opt.max_schedules) break;
    detail::RunOutcome out = detail::run_one(setup, decider, opt.max_steps);
    ++res.schedules;
    if (out.diverged) ++res.diverged;
    seen.insert(hash_trace(out.trace));
    if (!out.failure.empty()) {
      res.failed = true;
      res.failure = std::move(out.failure);
      res.fail_round = res.schedules - 1;
      res.fail_trace = std::move(out.trace);
      break;
    }
    if (!decider.advance()) {
      res.exhausted = true;
      break;
    }
  }
  res.distinct = seen.size();
  return res;
}

/// Re-execute one recorded schedule (a Result::fail_trace). Returns the
/// single-schedule Result so the caller can assert the failure reproduces.
inline Result replay(const Setup& setup, const std::vector<int>& trace,
                     Options opt = {}) {
  Result res;
  ReplayDecider decider(trace);
  detail::RunOutcome out = detail::run_one(setup, decider, opt.max_steps);
  res.schedules = 1;
  res.distinct = 1;
  if (out.diverged) res.diverged = 1;
  res.fail_trace = std::move(out.trace);
  if (!out.failure.empty()) {
    res.failed = true;
    res.failure = std::move(out.failure);
  }
  return res;
}

}  // namespace interleave

/// Harness build: yield the virtual-thread token at this atomic access.
/// No-op on threads the explorer does not control.
inline void sched_point() {
  interleave::Engine* engine = interleave::detail::g_engine;
  if (engine != nullptr) engine->yield(interleave::detail::g_vthread);
}

#endif  // ELSA_INTERLEAVE_HARNESS

}  // namespace elsa::util
