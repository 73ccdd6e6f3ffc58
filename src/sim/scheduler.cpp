#include "sim/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace acs::sim {
namespace {

/// One parallel dispatch, on its caller's stack while the caller waits.
/// `num_blocks` and `body` are fixed before it opens; `slots` (pool threads
/// that may still join, 0 once closed), `running` (pool threads inside) and
/// `error` are guarded by the pool's `pool_m`.
struct Dispatch {
  std::size_t num_blocks;
  const std::function<void(std::size_t)>* body;
  unsigned slots;
  unsigned running = 0;
  std::exception_ptr error = nullptr;
  std::atomic<std::size_t> next{0};
};

}  // namespace

/// Parked pool threads plus the open dispatches. A pool thread joins the
/// oldest dispatch that has a free slot, pulls its block ids from the
/// dispatch's atomic counter (the GPU's global block dispatcher) and leaves
/// when the counter runs out; the last one out wakes the dispatcher.
struct BlockScheduler::Pool {
  acs::Mutex pool_m;
  acs::CondVar work_cv;
  acs::CondVar done_cv;
  /// Dispatches that still take pool threads, oldest first.
  std::vector<Dispatch*> open ACS_GUARDED_BY(pool_m);
  std::vector<std::thread> threads ACS_GUARDED_BY(pool_m);
  bool stop ACS_GUARDED_BY(pool_m) = false;

  ~Pool() {
    std::vector<std::thread> joining;
    {
      acs::MutexLock lock(pool_m);
      stop = true;
      joining.swap(threads);
    }
    work_cv.notify_all();
    for (auto& t : joining) t.join();
  }

  /// Open `d`, with enough pool threads for its slots, and wait until every
  /// thread that joined it has left and no more can join.
  void run(Dispatch& d) ACS_EXCLUDES(pool_m) {
    acs::MutexLock lock(pool_m);
    while (threads.size() < d.slots)
      threads.emplace_back([this] { work_loop(); });
    open.push_back(&d);
    work_cv.notify_all();
    while (d.slots != 0 || d.running != 0) done_cv.wait(lock);
  }

  void close_locked(Dispatch& d) ACS_REQUIRES(pool_m) {
    d.slots = 0;
    std::erase(open, &d);
  }

  void work_loop() ACS_EXCLUDES(pool_m) {
    for (;;) {
      Dispatch* d;
      {
        acs::MutexLock lock(pool_m);
        while (!stop && open.empty()) work_cv.wait(lock);
        if (stop) return;
        d = open.front();
        ++d->running;
        if (--d->slots == 0) close_locked(*d);
      }
      std::exception_ptr error;
      for (;;) {
        // mo: work-stealing ticket; block inputs/outputs are published by
        // mo: pool_m, taken to open, join and leave the dispatch.
        const std::size_t b = d->next.fetch_add(1, std::memory_order_relaxed);
        if (b >= d->num_blocks) break;
        try {
          (*d->body)(b);
        } catch (...) {
          error = std::current_exception();
          break;
        }
      }
      acs::MutexLock lock(pool_m);
      if (error && !d->error) d->error = error;
      // The counter ran out, or a block threw and the blocks left are
      // skipped: no later thread joins.
      close_locked(*d);
      if (--d->running == 0) done_cv.notify_all();
    }
  }
};

BlockScheduler::BlockScheduler() = default;
BlockScheduler::~BlockScheduler() = default;

void BlockScheduler::for_each_block(
    std::size_t num_blocks, unsigned threads,
    const std::function<void(std::size_t)>& body) const {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (threads == 1 || num_blocks <= 1) {
    for (std::size_t b = 0; b < num_blocks; ++b) body(b);
    return;
  }

  std::call_once(pool_once_, [this] { pool_ = std::make_unique<Pool>(); });
  Dispatch d{.num_blocks = num_blocks,
             .body = &body,
             .slots = static_cast<unsigned>(
                 std::min<std::size_t>(threads, num_blocks))};
  pool_->run(d);
  if (d.error) std::rethrow_exception(d.error);
}

}  // namespace acs::sim
