#include "core/chunk.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace acs {
namespace {

TEST(ChunkOrder, LexicographicOnBlockThenCounter) {
  EXPECT_LT((ChunkOrder{1, 5}), (ChunkOrder{2, 0}));
  EXPECT_LT((ChunkOrder{1, 5}), (ChunkOrder{1, 6}));
  EXPECT_EQ((ChunkOrder{3, 3}), (ChunkOrder{3, 3}));
}

TEST(Chunk, ByteSizeRegular) {
  const index_t rows[] = {0, 1};
  const index_t offsets[] = {0, 2, 3};
  const index_t cols[] = {1, 2, 3};
  const double vals[] = {1.0, 2.0, 3.0};
  Chunk<double> c;
  c.rows = rows;
  c.row_offsets = offsets;
  c.cols = cols;
  c.vals = vals;
  EXPECT_EQ(c.byte_size(), 32 + 2 * sizeof(index_t) + 3 * (sizeof(index_t) + sizeof(double)));
  EXPECT_EQ(c.byte_size(), Chunk<double>::charged_bytes(2, 3));
  EXPECT_EQ(c.entry_count(), 3);
}

TEST(Chunk, ByteSizeLongRowPointer) {
  Chunk<float> c;
  c.is_long_row = true;
  c.long_len = 100000;
  EXPECT_EQ(c.byte_size(), 48u);  // header only, no payload
  EXPECT_EQ(c.entry_count(), 100000);
}

TEST(ChunkPool, AllocatesUpToCapacity) {
  ChunkPool pool(100);
  EXPECT_TRUE(pool.try_allocate(60));
  EXPECT_TRUE(pool.try_allocate(40));
  EXPECT_EQ(pool.used(), 100u);
}

TEST(ChunkPool, RejectsOverflowWithoutLeaking) {
  ChunkPool pool(100);
  EXPECT_TRUE(pool.try_allocate(60));
  EXPECT_FALSE(pool.try_allocate(41));
  EXPECT_EQ(pool.used(), 60u);  // failed allocation rolled back
  EXPECT_TRUE(pool.try_allocate(40));
}

TEST(ChunkPool, GrowEnablesFurtherAllocation) {
  ChunkPool pool(10);
  EXPECT_FALSE(pool.try_allocate(11));
  pool.grow(20);
  EXPECT_EQ(pool.capacity(), 30u);
  EXPECT_TRUE(pool.try_allocate(11));
}

TEST(ChunkPool, ConcurrentAllocationNeverExceedsCapacity) {
  ChunkPool pool(1000);
  std::vector<std::thread> workers;
  std::atomic<int> granted{0};
  for (int t = 0; t < 8; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i)
        if (pool.try_allocate(1)) granted++;
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(granted.load(), 1000);
  EXPECT_EQ(pool.used(), 1000u);
}

// --- Pool storage ----------------------------------------------------------

/// A RegionSource that allocates regions and counts what passes through it.
class CountingSource final : public RegionSource {
 public:
  ~CountingSource() {
    for (std::byte* r : kept_) free_region(r);
  }
  std::byte* take_region() override {
    ++taken_;
    return allocate_region();
  }
  void give_back(std::byte* region) noexcept override {
    ++returned_;
    kept_.push_back(region);
  }
  [[nodiscard]] int taken() const { return taken_.load(); }
  [[nodiscard]] int returned() const { return returned_.load(); }

 private:
  std::atomic<int> taken_{0};
  std::atomic<int> returned_{0};
  std::vector<std::byte*> kept_;
};

TEST(ChunkPool, PlacementsAreAlignedAndHoldTheirData) {
  ChunkPool pool(1 << 20);
  std::vector<ChunkSlot<double>> slots;
  for (std::size_t rows = 1; rows <= 5; ++rows)
    slots.push_back(pool.place<double>(rows, 2 * rows + 1));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const ChunkSlot<double>& s = slots[i];
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.vals.data()) % alignof(double),
              0u);
    EXPECT_EQ(s.row_offsets.size(), s.rows.size() + 1);
    for (index_t& r : s.rows) r = static_cast<index_t>(i);
    for (index_t& o : s.row_offsets) o = static_cast<index_t>(i);
    for (index_t& c : s.cols) c = static_cast<index_t>(i);
    for (double& v : s.vals) v = static_cast<double>(i);
  }
  // Each placement still holds what was written to it: none overlaps.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Chunk<double> c = slots[i].chunk({0, static_cast<std::uint32_t>(i)});
    for (const index_t r : c.rows) EXPECT_EQ(r, static_cast<index_t>(i));
    for (const index_t o : c.row_offsets) EXPECT_EQ(o, static_cast<index_t>(i));
    for (const index_t x : c.cols) EXPECT_EQ(x, static_cast<index_t>(i));
    for (const double v : c.vals) EXPECT_EQ(v, static_cast<double>(i));
  }
  EXPECT_EQ(pool.regions(), 1u);
}

TEST(ChunkPool, DeniedAllocationTakesNoRegion) {
  CountingSource source;
  {
    ChunkPool pool(10, &source);
    EXPECT_FALSE(pool.try_allocate(11));
    EXPECT_EQ(pool.regions(), 0u);
  }
  EXPECT_EQ(source.taken(), 0);
}

TEST(ChunkPool, PlacementPastARegionAddsOneAndAllGoBack) {
  // Placements of the largest chunk shape, never written, so no page is
  // touched: enough of them to run past the first region's end.
  constexpr std::size_t kRows = 32767;
  const std::size_t per_region =
      kPoolRegionBytes / ChunkLayout<double>{kRows, kRows}.bytes();
  CountingSource source;
  {
    ChunkPool pool(1, &source);
    const ChunkSlot<double> first = pool.place<double>(kRows, kRows);
    const auto* base = reinterpret_cast<const std::byte*>(first.rows.data());
    for (std::size_t i = 1; i < per_region; ++i)
      (void)pool.place<double>(kRows, kRows);
    EXPECT_EQ(pool.regions(), 1u);
    const ChunkSlot<double> next = pool.place<double>(kRows, kRows);
    const auto* at = reinterpret_cast<const std::byte*>(next.rows.data());
    // The straddling placement moved to the start of a second region.
    EXPECT_TRUE(at < base || at >= base + kPoolRegionBytes);
    EXPECT_EQ(pool.regions(), 2u);
    EXPECT_EQ(source.taken(), 2);
  }
  EXPECT_EQ(source.returned(), 2);
}

TEST(ChunkPool, ConcurrentPlacementsAreDisjoint) {
  // Four threads place and fill chunks at once, forcing several region
  // boundaries; every placement must still hold its own writer's marks.
  CountingSource source;
  ChunkPool pool(1, &source);
  constexpr int kThreads = 4;
  constexpr std::size_t kEntries = 30000;  // ~234 KiB per float placement
  constexpr int kPerThread = 200;          // ~183 MiB in all: 3+ regions
  std::vector<std::vector<ChunkSlot<float>>> placed(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const ChunkSlot<float> s = pool.place<float>(1, kEntries);
        // Mark the first and last element only: enough to catch overlap
        // without touching every page.
        s.rows[0] = t;
        s.cols.front() = i;
        s.cols.back() = i;
        s.vals.back() = static_cast<float>(t);
        placed[static_cast<std::size_t>(t)].push_back(s);
      }
    });
  for (auto& w : workers) w.join();
  std::set<const void*> starts;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      const ChunkSlot<float>& s =
          placed[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      EXPECT_EQ(s.rows[0], t);
      EXPECT_EQ(s.cols.front(), i);
      EXPECT_EQ(s.cols.back(), i);
      EXPECT_EQ(s.vals.back(), static_cast<float>(t));
      starts.insert(s.rows.data());
    }
  EXPECT_EQ(starts.size(), static_cast<std::size_t>(kThreads * kPerThread));
  const std::size_t placed_bytes =
      kThreads * kPerThread * ChunkLayout<float>{1, kEntries}.bytes();
  EXPECT_GE(pool.regions(), placed_bytes / kPoolRegionBytes);
  // Blocks racing into a new region share the one the first of them took.
  EXPECT_EQ(static_cast<std::size_t>(source.taken()), pool.regions());
  EXPECT_EQ(source.returned(), 0);
}

}  // namespace
}  // namespace acs
