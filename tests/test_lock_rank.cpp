// Runtime lock-rank enforcement (DESIGN.md §11). The ordered/unranked/
// re-acquire cases must run in every build; the inversion abort (with both
// mutex names in the message) only exists when ELSA_ENFORCE_LOCK_RANKS is
// compiled in — Debug builds and the sanitizer CI jobs — so the death
// test skips itself elsewhere instead of silently passing.
//
// Every test mutex is function-local `static`: std::mutex never calls
// pthread_mutex_destroy (trivial destructor), so TSan remembers lock
// orders by address forever — stack-slot reuse across tests would weave
// unrelated tests' orders into false inversion cycles.
#include <gtest/gtest.h>

#include "util/thread_annotations.hpp"

namespace util = elsa::util;

TEST(LockRank, OrderedAcquisitionRuns) {
  static util::Mutex outer{"test.outer", util::lockrank::kService};
  static util::Mutex inner{"test.inner", util::lockrank::kThreadPool};
  int guarded = 0;
  {
    util::MutexLock lo(outer);
    util::MutexLock li(inner);
    ++guarded;
  }
  // Releasing restores the stack: the same descent must work again.
  {
    util::MutexLock lo(outer);
    util::MutexLock li(inner);
    ++guarded;
  }
  EXPECT_EQ(guarded, 2);
}

TEST(LockRank, UnrankedMutexesAreNeverChecked) {
  // Unranked participates in no ordering, in either position. Each
  // direction gets its own pair so neither TSan nor the static lock-graph
  // pass sees the same two mutexes in both orders.
  {
    static util::Mutex unranked_hi;  // default-constructed: kUnranked
    static util::Mutex ranked_lo{"test.ranked.below", util::lockrank::kMetrics};
    util::MutexLock lu(unranked_hi);
    util::MutexLock lr(ranked_lo);
  }
  {
    static util::Mutex ranked_hi{"test.ranked.above", util::lockrank::kMetrics};
    static util::Mutex unranked_lo;
    util::MutexLock lr(ranked_hi);
    util::MutexLock lu(unranked_lo);
  }
  SUCCEED();
}

TEST(LockRank, EarlyUnlockAllowsReacquireUpward) {
  static util::Mutex elow{"test.early.low", util::lockrank::kMetrics};
  static util::Mutex ehigh{"test.early.high", util::lockrank::kService};
  elow.lock();
  elow.unlock();
  // Nothing held any more — taking the higher-ranked lock is fine.
  util::MutexLock lh(ehigh);
  util::MutexLock ll(elow);
}

TEST(LockRank, TryLockNeverAborts) {
  static util::Mutex tlow{"test.try.low", util::lockrank::kMetrics};
  static util::Mutex thigh{"test.try.high", util::lockrank::kService};
  util::MutexLock ll(tlow);
  // try_lock cannot block, hence cannot deadlock: an inverted try is
  // allowed (and succeeds here since nobody else holds `thigh`).
  ASSERT_TRUE(thigh.try_lock());
  thigh.unlock();
}

#if defined(ELSA_ENFORCE_LOCK_RANKS)

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InversionAbortsWithBothNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  static util::Mutex dlow{"test.death.pool", util::lockrank::kThreadPool};
  static util::Mutex dhigh{"test.death.service", util::lockrank::kService};
  EXPECT_DEATH(
      {
        util::MutexLock ll(dlow);
        util::MutexLock lh(dhigh);  // rank ascends: must abort
      },
      "lock-rank inversion.*test\\.death\\.service.*test\\.death\\.pool");
}

TEST(LockRankDeathTest, EqualRankAbortsToo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  static util::Mutex eqa{"test.death.a", util::lockrank::kThreadPool};
  static util::Mutex eqb{"test.death.b", util::lockrank::kThreadPool};
  EXPECT_DEATH(
      {
        util::MutexLock la(eqa);
        util::MutexLock lb(eqb);  // equal rank: no defined order, abort
      },
      "lock-rank inversion.*test\\.death\\.b.*test\\.death\\.a");
}

#else

TEST(LockRankDeathTest, SkippedWithoutEnforcement) {
  GTEST_SKIP() << "ELSA_ENFORCE_LOCK_RANKS not compiled in (non-Debug build "
                  "without -DELSA_LOCK_RANK_CHECKS=ON); inversion abort is "
                  "exercised by the Debug and sanitizer configurations.";
}

#endif  // ELSA_ENFORCE_LOCK_RANKS
