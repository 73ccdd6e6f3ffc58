#pragma once
/// \file scheduler.hpp
/// Host-side executor for simulated thread blocks. Blocks are independent
/// units of work (exactly as on the GPU); the scheduler runs them either
/// sequentially or on a persistent thread pool. Results must be written to
/// per-block slots by the callback, which is what makes the execution
/// deterministic regardless of thread count — the same property the paper's
/// deterministic scheduling pattern provides on hardware.
///
/// A scheduler is one pool, as the GPU has one block dispatcher: several
/// threads may dispatch into it at once, each naming how many threads may
/// run its blocks. Pool threads start on demand, up to the largest count
/// asked for, park between dispatches and live as long as the scheduler,
/// so the runtime Engine's workers share one warm pool across jobs.

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

namespace acs::sim {

class BlockScheduler {
 public:
  BlockScheduler();
  ~BlockScheduler();

  BlockScheduler(const BlockScheduler&) = delete;
  BlockScheduler& operator=(const BlockScheduler&) = delete;

  /// Invoke `body(block_id)` for every block in [0, num_blocks) on at most
  /// `threads` threads (0 = std::thread::hardware_concurrency()). One
  /// thread or one block runs inline on the caller; otherwise pool threads
  /// run the blocks while the caller waits. Threads may dispatch
  /// concurrently, but never from inside a block. The first exception a
  /// block throws is rethrown once the running blocks finish; blocks not
  /// yet started may be skipped.
  void for_each_block(std::size_t num_blocks, unsigned threads,
                      const std::function<void(std::size_t)>& body) const;

 private:
  struct Pool;

  /// Created by the first parallel dispatch: one thread costs nothing.
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<Pool> pool_;
};

}  // namespace acs::sim
