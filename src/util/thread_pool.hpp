// Fixed-size worker pool with a blocking task queue plus a parallel_for
// helper. Used by the parallel variant of the gradual-itemset miner
// (the paper's future-work PGP-mc direction) and by the bulk signal
// extraction in the offline phase.
//
// The queue and stop flag are ELSA_GUARDED_BY(mu_); clang's thread-safety
// analysis proves every access happens under a MutexLock (see
// util/thread_annotations.hpp and DESIGN.md §9).
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace elsa::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the future resolves with its result (or exception).
  template <class F>
  std::future<std::invoke_result_t<F>> submit(F&& f) ELSA_EXCLUDES(mu_) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      MutexLock lk(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop() ELSA_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  // Rank kThreadPool: submitted tasks run with the queue lock released, so
  // a task may take any lock; the queue lock itself only ever guards the
  // queue and is taken with higher-ranked caller locks (bench cache) held.
  mutable Mutex mu_{"util::ThreadPool::mu_", lockrank::kThreadPool};
  CondVar cv_;
  std::queue<std::function<void()>> queue_ ELSA_GUARDED_BY(mu_);
  bool stopping_ ELSA_GUARDED_BY(mu_) = false;
};

/// Statically-chunked parallel loop over [begin, end). `body(i)` must be
/// safe to call concurrently for distinct i. Falls back to a serial loop
/// when the range is small or the pool has one worker, so callers never
/// pay dispatch overhead on trivial inputs. Exceptions from any chunk are
/// rethrown on the calling thread once every chunk has finished (the first
/// chunk's exception, in chunk order, wins).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 64);

}  // namespace elsa::util
