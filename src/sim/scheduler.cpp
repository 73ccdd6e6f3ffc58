#include "sim/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace acs::sim {

/// Parked worker threads plus the state of the current dispatch. Workers
/// wake on a generation bump, pull block ids from a shared atomic counter
/// (the GPU's global block dispatcher) and signal completion when the last
/// one runs out of blocks.
struct BlockScheduler::Pool {
  acs::Mutex pool_m;
  acs::CondVar work_cv;
  acs::CondVar done_cv;
  std::uint64_t generation ACS_GUARDED_BY(pool_m) = 0;
  std::size_t num_blocks ACS_GUARDED_BY(pool_m) = 0;
  const std::function<void(std::size_t)>* body ACS_GUARDED_BY(pool_m) = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t running ACS_GUARDED_BY(pool_m) = 0;
  std::exception_ptr error ACS_GUARDED_BY(pool_m);
  bool stop ACS_GUARDED_BY(pool_m) = false;
  std::vector<std::thread> workers;

  explicit Pool(unsigned n) {
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      workers.emplace_back([this] { work_loop(); });
  }

  ~Pool() {
    {
      acs::MutexLock lock(pool_m);
      stop = true;
    }
    work_cv.notify_all();
    for (auto& t : workers) t.join();
  }

  void work_loop() ACS_EXCLUDES(pool_m) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* job;
      std::size_t blocks;
      {
        acs::MutexLock lock(pool_m);
        while (!stop && generation == seen) work_cv.wait(lock);
        if (stop) return;
        seen = generation;
        job = body;
        // Copy the dispatch size out: the ticket loop below runs unlocked,
        // and `num_blocks` stays owned by pool_m until the next generation.
        blocks = num_blocks;
      }
      for (;;) {
        // mo: work-stealing ticket; block inputs/outputs are published by
        // mo: the generation handshake under the pool mutex, not by this.
        const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks) break;
        try {
          (*job)(b);
        } catch (...) {
          acs::MutexLock lock(pool_m);
          if (!error) error = std::current_exception();
          break;
        }
      }
      {
        acs::MutexLock lock(pool_m);
        if (--running == 0) done_cv.notify_one();
      }
    }
  }
};

BlockScheduler::BlockScheduler(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::max(1u, std::thread::hardware_concurrency());
}

BlockScheduler::~BlockScheduler() = default;

void BlockScheduler::for_each_block(
    std::size_t num_blocks, const std::function<void(std::size_t)>& body) const {
  if (num_blocks == 0) return;
  if (threads_ <= 1 || num_blocks == 1) {
    for (std::size_t b = 0; b < num_blocks; ++b) body(b);
    return;
  }

  if (!pool_) pool_ = std::make_unique<Pool>(threads_);
  Pool& p = *pool_;

  std::exception_ptr err;
  {
    acs::MutexLock lock(p.pool_m);
    p.num_blocks = num_blocks;
    p.body = &body;
    // mo: reset is published to workers by the generation bump + cv under
    // mo: the mutex held here; the counter itself needs no ordering.
    p.next.store(0, std::memory_order_relaxed);
    p.running = p.workers.size();
    p.error = nullptr;
    ++p.generation;
    p.work_cv.notify_all();
    while (p.running != 0) p.done_cv.wait(lock);
    err = p.error;
    p.body = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace acs::sim
