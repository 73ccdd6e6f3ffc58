#pragma once
/// \file pool_arena.hpp
/// Recycles chunk-pool storage regions across SpGEMM jobs, as a GPU library
/// keeps its cudaMalloc'd pool alive between calls. A job's chunk pool draws
/// regions through a `Lease` as its bump pointer reaches them — a recycled
/// region when one is free (the most recently returned first, whose pages
/// are the likeliest to be backed still), a newly allocated one otherwise —
/// and gives every region back when the job's pipeline ends, restart growth
/// included. The arena keeps what is returned until it is cleared or
/// destroyed (with the engine), so its footprint is the most regions its
/// concurrent jobs ever held, and a repeated workload faults no chunk
/// memory in after its first run. Thread-safe.

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/chunk.hpp"
#include "core/thread_annotations.hpp"

namespace acs::runtime {

class PoolArena {
 public:
  PoolArena() = default;
  /// Frees the free regions; every lease must have ended.
  ~PoolArena();

  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  /// One job's view of the arena: the RegionSource its chunk pool draws
  /// from. Outlives the job's multiplication.
  class Lease final : public RegionSource {
   public:
    explicit Lease(PoolArena& arena) : arena_(arena) {}

    std::byte* take_region() override;
    void give_back(std::byte* region) noexcept override;

    /// Bytes of the regions this lease drew that the arena recycled. Read
    /// after the job's blocks joined.
    [[nodiscard]] std::size_t reused_bytes() const {
      // mo: a tally read after the blocks that add to it joined.
      return reused_bytes_.load(std::memory_order_relaxed);
    }

   private:
    PoolArena& arena_;
    std::atomic<std::size_t> reused_bytes_{0};
  };

  struct Counters {
    std::size_t fresh_bytes = 0;    ///< region bytes newly allocated
    std::size_t reused_bytes = 0;   ///< region bytes handed out again
    std::size_t acquires = 0;       ///< regions handed out
    std::size_t reuse_hits = 0;     ///< regions handed out recycled
    /// Most region bytes the arena held at once, free and leased.
    std::size_t high_water_bytes = 0;
    std::size_t outstanding = 0;    ///< regions leased and not yet returned
  };

  [[nodiscard]] Counters counters() const ACS_EXCLUDES(m_);
  /// Bytes of the regions currently free for the next job.
  [[nodiscard]] std::size_t free_bytes() const ACS_EXCLUDES(m_);
  /// Free the free regions and reset the counters.
  void clear() ACS_EXCLUDES(m_);

 private:
  /// The last returned free region, else a newly allocated one;
  /// `recycled` says which.
  std::byte* take(bool& recycled) ACS_EXCLUDES(m_);
  void give_back(std::byte* region) noexcept ACS_EXCLUDES(m_);

  mutable acs::Mutex m_;
  std::vector<std::byte*> free_ ACS_GUARDED_BY(m_);
  Counters counters_ ACS_GUARDED_BY(m_);
};

}  // namespace acs::runtime
