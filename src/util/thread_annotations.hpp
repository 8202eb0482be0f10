// Clang thread-safety annotations and the annotated lock types built on
// them — the project's only sanctioned mutex surface (elsa-lint's
// `raw-mutex` rule bans `std::mutex` and friends everywhere else).
//
// Under `clang++ -Wthread-safety` every `ELSA_GUARDED_BY` field, every
// `ELSA_REQUIRES` contract and every `MutexLock` scope is checked at
// compile time: reading guarded state without the lock, releasing a lock
// twice, or forgetting a lock on one branch is a build error, not a TSan
// lottery ticket. Under gcc (which has no such analysis) the macros expand
// to nothing and the types degrade to thin zero-cost wrappers over the
// standard primitives, so the g++ -Werror build is unaffected.
//
// Conventions (see DESIGN.md §9):
//   * shared state guarded by a lock is declared `T x_ ELSA_GUARDED_BY(mu_);`
//   * public entry points that take the lock internally are `ELSA_EXCLUDES(mu_)`
//   * private helpers that expect the lock held are `ELSA_REQUIRES(mu_)`
//   * condition waits use explicit `while (!pred) cv_.wait(mu_);` loops —
//     predicate lambdas defeat the analysis (a lambda body is analysed as
//     a separate function that does not know the lock is held)
//
// Deadlock freedom (DESIGN.md §11) is checked from two sides:
//   * statically, elsa-lint's whole-project lock-graph pass proves the
//     acquisition order acyclic (rules lock-cycle, cv-wait-extra-lock,
//     blocking-under-lock);
//   * at runtime, every long-lived Mutex carries a *rank* from the
//     `lockrank` hierarchy below. When ELSA_ENFORCE_LOCK_RANKS is defined
//     (Debug builds, or -DELSA_LOCK_RANK_CHECKS=ON; sanitizer CI turns it
//     on) a thread-local held-lock stack aborts on the first acquisition
//     that is not strictly rank-decreasing, printing both mutex names and
//     both acquisition sites. In release builds the machinery — names,
//     ranks, the std::source_location default arguments — is compiled out
//     entirely and Mutex is the same thin wrapper it always was.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(ELSA_ENFORCE_LOCK_RANKS)
#include <cstdio>
#include <cstdlib>
#include <source_location>
#endif

#if defined(__clang__)
#define ELSA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ELSA_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability ("mutex" names it in diagnostics).
#define ELSA_CAPABILITY(x) ELSA_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose lifetime acquires/releases a capability.
#define ELSA_SCOPED_CAPABILITY ELSA_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be touched while holding the given capability.
#define ELSA_GUARDED_BY(x) ELSA_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be touched while holding the given capability.
#define ELSA_PT_GUARDED_BY(x) ELSA_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (not held on entry, held on exit).
#define ELSA_ACQUIRE(...) ELSA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not held on exit).
#define ELSA_RELEASE(...) ELSA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function attempts acquisition; first arg is the success return value.
#define ELSA_TRY_ACQUIRE(...) \
  ELSA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must hold the capability for the duration of the call.
#define ELSA_REQUIRES(...) ELSA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention).
#define ELSA_EXCLUDES(...) ELSA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (trusted by the analysis).
#define ELSA_ASSERT_CAPABILITY(x) ELSA_THREAD_ANNOTATION(assert_capability(x))
/// Escape hatch: skip analysis of this function's body. Use only inside the
/// annotated primitives themselves, with a comment saying why.
#define ELSA_NO_THREAD_SAFETY_ANALYSIS \
  ELSA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace elsa::util {

class CondVar;

/// Project-wide lock hierarchy, highest (outermost) first. A thread may
/// only acquire a mutex of *strictly lower* rank than every ranked mutex
/// it already holds; two same-rank mutexes must never be held together. The full table with per-level rules lives in DESIGN.md
/// §11; elsa-lint's lock-graph pass checks the same order statically.
namespace lockrank {
inline constexpr int kUnranked = -1;   ///< exempt from checking (tests, ad hoc)
inline constexpr int kBenchCache = 60; ///< benchx::ExperimentCache::mu_
inline constexpr int kService = 50;    ///< serve::PredictionService::q_mu_
inline constexpr int kAdvisor = 45;    ///< advisor::CheckpointAdvisor::mu_
inline constexpr int kEngine = 40;     ///< serve::ShardedEngine::wd_mu_
inline constexpr int kThreadPool = 20; ///< util::ThreadPool::mu_
inline constexpr int kMetrics = 10;    ///< serve::ServeMetrics::clock_mu_
inline constexpr int kLeaf = 0;        ///< util::lgamma_mt fallback serializer
}  // namespace lockrank

#if defined(ELSA_ENFORCE_LOCK_RANKS)
namespace rankcheck {

/// One acquisition on the current thread: enough to name both sides of an
/// inversion in the abort message.
struct Held {
  const void* mu = nullptr;
  const char* name = nullptr;
  int rank = lockrank::kUnranked;
  std::source_location site{};
};

/// Fixed-capacity per-thread stack — no allocation on the lock path, and
/// deep enough that overflowing it is itself a design smell worth a bang.
struct HeldStack {
  static constexpr int kMax = 32;
  Held held[kMax];
  int depth = 0;
};

inline HeldStack& tls() {
  static thread_local HeldStack s;
  return s;
}

[[noreturn]] inline void die_inversion(const Held& held, const char* name,
                                       int rank,
                                       const std::source_location& site) {
  std::fprintf(stderr,
               "elsa: lock-rank inversion: acquiring \"%s\" (rank %d) at "
               "%s:%u while holding \"%s\" (rank %d) acquired at %s:%u — "
               "ranks must strictly decrease (DESIGN.md §11)\n",
               name ? name : "<unranked>", rank, site.file_name(),
               static_cast<unsigned>(site.line()),
               held.name ? held.name : "<unranked>", held.rank,
               held.site.file_name(), static_cast<unsigned>(held.site.line()));
  std::abort();
}

[[noreturn]] inline void die_overflow(const char* name) {
  std::fprintf(stderr,
               "elsa: lock-rank: held-lock stack overflow acquiring \"%s\" "
               "(> %d locks on one thread)\n",
               name ? name : "<unranked>", HeldStack::kMax);
  std::abort();
}

}  // namespace rankcheck
#endif  // ELSA_ENFORCE_LOCK_RANKS

/// Annotated standard mutex. Non-recursive, non-timed — the only flavour
/// the codebase needs, and the analysis keeps it that way. The optional
/// (name, rank) constructor opts the mutex into runtime rank checking in
/// enforcing builds; in release builds both arguments are discarded at
/// compile time.
class ELSA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if defined(ELSA_ENFORCE_LOCK_RANKS)
  explicit Mutex(const char* name, int rank) : name_(name), rank_(rank) {}

  void lock(std::source_location site = std::source_location::current())
      ELSA_ACQUIRE() {
    rank_check(site);  // abort *before* blocking on an inverted order
    mu_.lock();
    rank_push(site);
  }
  void unlock() ELSA_RELEASE() {
    rank_pop();
    mu_.unlock();
  }
  bool try_lock(std::source_location site = std::source_location::current())
      ELSA_TRY_ACQUIRE(true) {
    // No order check: try_lock never blocks, so it cannot close a wait
    // cycle — but a success is still a hold the next lock() checks against.
    if (!mu_.try_lock()) return false;
    rank_push(site);
    return true;
  }
#else
  /// Release builds: name and rank are documentation carried in source
  /// only; the object stays a zero-cost wrapper over std::mutex.
  explicit Mutex(const char*, int) {}

  void lock() ELSA_ACQUIRE() { mu_.lock(); }
  void unlock() ELSA_RELEASE() { mu_.unlock(); }
  bool try_lock() ELSA_TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif

 private:
  friend class CondVar;  // wait() needs the native handle to suspend on
  std::mutex mu_;

#if defined(ELSA_ENFORCE_LOCK_RANKS)
  void rank_check(const std::source_location& site) const {
    if (rank_ == lockrank::kUnranked) return;
    const rankcheck::HeldStack& s = rankcheck::tls();
    for (int i = s.depth - 1; i >= 0; --i) {
      const rankcheck::Held& h = s.held[i];
      if (h.rank == lockrank::kUnranked) continue;
      if (h.rank <= rank_) rankcheck::die_inversion(h, name_, rank_, site);
    }
  }
  void rank_push(const std::source_location& site) const {
    rankcheck::HeldStack& s = rankcheck::tls();
    if (s.depth >= rankcheck::HeldStack::kMax) rankcheck::die_overflow(name_);
    s.held[s.depth++] = {this, name_, rank_, site};
  }
  void rank_pop() const {
    rankcheck::HeldStack& s = rankcheck::tls();
    // Unlock order can legally differ from lock order (early MutexLock
    // unlock under an outer lock): remove the topmost entry for *this*.
    for (int i = s.depth - 1; i >= 0; --i) {
      if (s.held[i].mu != this) continue;
      for (int j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
      --s.depth;
      return;
    }
  }

  const char* name_ = nullptr;
  int rank_ = lockrank::kUnranked;
#endif
};

/// RAII lock with optional early release (so a caller can drop the lock
/// before notifying a condition variable). The analysis tracks the scope:
/// touching guarded state after `unlock()` is a compile error.
class ELSA_SCOPED_CAPABILITY MutexLock {
 public:
#if defined(ELSA_ENFORCE_LOCK_RANKS)
  /// The caller's file:line rides along as the acquisition site the rank
  /// checker prints on inversion; release builds have no such parameter.
  explicit MutexLock(Mutex& mu,
                     std::source_location site = std::source_location::current())
      ELSA_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(site);
  }
#else
  explicit MutexLock(Mutex& mu) ELSA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
#endif

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release before scope end. Must not be called twice; the analysis
  /// enforces that at every call site.
  // Body analysis skipped: the held_ flag is this object's own bookkeeping,
  // invisible to the capability model.
  void unlock() ELSA_RELEASE() ELSA_NO_THREAD_SAFETY_ANALYSIS {
    mu_.unlock();
    held_ = false;
  }

  // Body analysis skipped: conditional release on held_ is correct by
  // construction but outside what the analysis can prove.
  ~MutexLock() ELSA_RELEASE() ELSA_NO_THREAD_SAFETY_ANALYSIS {
    if (held_) mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable bound to the annotated Mutex. wait() demands the
/// lock via ELSA_REQUIRES, so a wait outside the critical section — the
/// classic lost-wakeup bug — no longer compiles under clang.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, and reacquire before returning.
  /// Spurious wakeups happen; always call in a `while (!pred)` loop.
  void wait(Mutex& mu) ELSA_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait and
    // release() it back so the unique_lock destructor leaves it locked —
    // ownership stays with the caller's MutexLock throughout.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Timed wait: release `mu`, sleep at most `d`, reacquire. Returns after
  /// a notify, the timeout, or a spurious wakeup — always recheck the
  /// predicate. The serve watchdog's pacing wait is the canonical user.
  template <class Rep, class Period>
  void wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& d)
      ELSA_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait_for(native, d);
    native.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace elsa::util
