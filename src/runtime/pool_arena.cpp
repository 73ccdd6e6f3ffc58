#include "runtime/pool_arena.hpp"

#include <algorithm>

namespace acs::runtime {

PoolArena::~PoolArena() { clear(); }

std::byte* PoolArena::Lease::take_region() {
  bool recycled = false;
  std::byte* region = arena_.take(recycled);
  if (recycled)
    // mo: per-job tally; the engine reads it after the job's blocks join.
    reused_bytes_.fetch_add(kPoolRegionBytes, std::memory_order_relaxed);
  return region;
}

void PoolArena::Lease::give_back(std::byte* region) noexcept {
  arena_.give_back(region);
}

std::byte* PoolArena::take(bool& recycled) {
  {
    acs::MutexLock lock(m_);
    ++counters_.acquires;
    ++counters_.outstanding;
    if (!free_.empty()) {
      std::byte* region = free_.back();
      free_.pop_back();
      ++counters_.reuse_hits;
      counters_.reused_bytes += kPoolRegionBytes;
      recycled = true;
      return region;
    }
    counters_.fresh_bytes += kPoolRegionBytes;
    counters_.high_water_bytes =
        std::max(counters_.high_water_bytes,
                 (counters_.outstanding + free_.size()) * kPoolRegionBytes);
  }
  // Allocated outside the lock: other jobs' blocks keep recycling meanwhile.
  recycled = false;
  try {
    return allocate_region();
  } catch (...) {
    acs::MutexLock lock(m_);
    --counters_.outstanding;
    counters_.fresh_bytes -= kPoolRegionBytes;
    throw;
  }
}

void PoolArena::give_back(std::byte* region) noexcept {
  acs::MutexLock lock(m_);
  if (counters_.outstanding > 0) --counters_.outstanding;
  try {
    free_.push_back(region);
  } catch (...) {
    free_region(region);  // no room to keep it: free it instead
  }
}

PoolArena::Counters PoolArena::counters() const {
  acs::MutexLock lock(m_);
  return counters_;
}

std::size_t PoolArena::free_bytes() const {
  acs::MutexLock lock(m_);
  return free_.size() * kPoolRegionBytes;
}

void PoolArena::clear() {
  acs::MutexLock lock(m_);
  for (std::byte* region : free_) free_region(region);
  free_.clear();
  counters_ = Counters{};
}

}  // namespace acs::runtime
