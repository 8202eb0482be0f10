// Lock-graph fixture: blocking calls under a held mutex — a potentially
// unbounded ring pop_wait and a thread join, both while holding mu_.
// Anyone contending mu_ is wedged until the callee unblocks.
#include <thread>
#include <vector>

#include "serve/spsc_ring.hpp"
#include "util/thread_annotations.hpp"

namespace lockfix {

class BlockyWorker {
 public:
  void drain_under_lock() ELSA_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    items_.pop_wait(batch_, 8);
  }

  void stop_under_lock() ELSA_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    worker_.join();
  }

  void drain_fine() ELSA_EXCLUDES(mu_) {
    std::vector<int> got;
    items_.pop_wait(got, 8);
    util::MutexLock lk(mu_);
    batch_.swap(got);
  }

 private:
  util::Mutex mu_;
  serve::SpscRing<int> items_{8};
  std::thread worker_;
  std::vector<int> batch_;
};

}  // namespace lockfix
