#include "core/chunk.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

namespace acs {

std::byte* allocate_region() {
  return static_cast<std::byte*>(::operator new(kPoolRegionBytes));
}

void free_region(std::byte* region) noexcept { ::operator delete(region); }

ChunkPool::~ChunkPool() {
  const std::size_t bound = region_bound();
  for (std::size_t i = 0; i <= bound; ++i) {
    // mo: the blocks that installed regions joined before destruction.
    std::byte* r = regions_[i].load(std::memory_order_relaxed);
    if (r == nullptr) continue;
    if (source_)
      source_->give_back(r);
    else
      free_region(r);
  }
}

std::size_t ChunkPool::regions() const {
  std::size_t n = 0;
  const std::size_t bound = region_bound();
  for (std::size_t i = 0; i <= bound; ++i)
    // mo: a report read after the blocks join, like the counters.
    if (regions_[i].load(std::memory_order_relaxed) != nullptr) ++n;
  return n;
}

std::size_t ChunkPool::region_bound() const {
  // mo: read after the blocks join; a region index never exceeds the
  // mo: cursor's, since the bump that landed in it moved the cursor past.
  const std::size_t cursor = cursor_.load(std::memory_order_relaxed);
  return std::min(cursor / kPoolRegionBytes, kMaxRegions - 1);
}

std::byte* ChunkPool::place_bytes(std::size_t bytes) {
  for (;;) {
    // mo: the RMW alone makes placements disjoint; the payload reaches its
    // mo: readers through the scheduler's joins, not through this counter.
    const std::size_t at = cursor_.fetch_add(bytes, std::memory_order_relaxed);
    const std::size_t offset = at % kPoolRegionBytes;
    // A placement never exceeds a region (invariants.hpp), so one that
    // straddles a region's end is dropped; the bump already moved the
    // cursor past that end, so the next one lands in a later region.
    if (offset + bytes > kPoolRegionBytes) continue;
    return region(at / kPoolRegionBytes) + offset;
  }
}

std::byte* ChunkPool::region(std::size_t i) {
  if (i >= kMaxRegions)
    throw std::length_error("acspgemm: chunk pool storage exceeds " +
                            std::to_string(kMaxRegions) + " regions");
  // Marks a slot whose region one block is taking: every other block that
  // lands in it waits for that one region instead of taking its own.
  static std::byte installing_marker;
  std::byte* const installing = &installing_marker;
  std::atomic<std::byte*>& slot = regions_[i];
  for (;;) {
    // mo: acquire pairs with the installer's release store, so the region
    // mo: pointer is used only after its source handed it over.
    std::byte* r = slot.load(std::memory_order_acquire);
    if (r != nullptr && r != installing) return r;
    // mo: the claim publishes nothing; the region comes with the store.
    if (r == nullptr && slot.compare_exchange_strong(
                            r, installing, std::memory_order_relaxed,
                            std::memory_order_relaxed))
      break;
    std::this_thread::yield();  // another block is installing region i
  }
  std::byte* taken = nullptr;
  try {
    taken = source_ ? source_->take_region() : allocate_region();
  } catch (...) {
    // mo: releases the claim; a waiting block retries the install.
    slot.store(nullptr, std::memory_order_release);
    throw;
  }
  // mo: release publishes the region to the acquire loads above.
  slot.store(taken, std::memory_order_release);
  return taken;
}

}  // namespace acs
