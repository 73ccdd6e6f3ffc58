#pragma once
/// \file scheduler.hpp
/// Host-side executor for simulated thread blocks. Blocks are independent
/// units of work (exactly as on the GPU); the scheduler runs them either
/// sequentially or on a persistent thread pool. Results must be written to
/// per-block slots by the callback, which is what makes the execution
/// deterministic regardless of thread count — the same property the paper's
/// deterministic scheduling pattern provides on hardware.
///
/// The pool threads are created lazily on the first parallel dispatch and
/// then parked between dispatches, so one scheduler can be reused across
/// many kernels — and, via the runtime Engine, across many SpGEMM jobs —
/// without paying thread creation per launch.

#include <cstddef>
#include <functional>
#include <memory>

namespace acs::sim {

class BlockScheduler {
 public:
  /// `threads == 0` picks std::thread::hardware_concurrency().
  explicit BlockScheduler(unsigned threads = 1);
  ~BlockScheduler();

  BlockScheduler(const BlockScheduler&) = delete;
  BlockScheduler& operator=(const BlockScheduler&) = delete;

  /// Invoke `body(block_id)` for every block in [0, num_blocks). Exceptions
  /// thrown by any block are rethrown (first one wins) after all workers
  /// finish. Not reentrant: one dispatch at a time per scheduler.
  void for_each_block(std::size_t num_blocks,
                      const std::function<void(std::size_t)>& body) const;

  [[nodiscard]] unsigned threads() const { return threads_; }

 private:
  struct Pool;

  unsigned threads_;
  /// Lazily created worker pool; never allocated for single-threaded
  /// schedulers, so the default configuration costs nothing.
  mutable std::unique_ptr<Pool> pool_;
};

}  // namespace acs::sim
