#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace elsa::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (pool.size() <= 1 || n <= grain) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t chunks =
      std::min(pool.size() * 4, (n + grain - 1) / grain);
  const std::size_t step = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * step;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + step);
    futs.push_back(pool.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }));
  }
  // Wait for every chunk before rethrowing: the chunks call `body` by
  // reference, so none may still be running once the caller unwinds.
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace elsa::util
