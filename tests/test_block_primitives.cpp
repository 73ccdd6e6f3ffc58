#include "sim/block_primitives.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

namespace acs::sim {
namespace {

TEST(BlockPrimitives, RadixPasses) {
  EXPECT_EQ(radix_passes(0), 0);
  EXPECT_EQ(radix_passes(1), 1);
  EXPECT_EQ(radix_passes(4), 1);
  EXPECT_EQ(radix_passes(5), 2);
  EXPECT_EQ(radix_passes(32), 8);
}

TEST(BlockPrimitives, BitsFor) {
  EXPECT_EQ(bits_for(0), 0);
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(255), 8);
  EXPECT_EQ(bits_for(256), 9);
}

TEST(BlockPrimitives, RadixSortSortsAndCarriesPayload) {
  std::vector<std::uint64_t> keys{9, 3, 7, 3, 1};
  std::vector<int> payload{0, 1, 2, 3, 4};
  MetricCounters m;
  block_radix_sort(std::span(keys), std::span(payload), 4, m);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 3, 3, 7, 9}));
  EXPECT_EQ(payload, (std::vector<int>{4, 1, 3, 2, 0}));
}

TEST(BlockPrimitives, RadixSortIsStable) {
  // Equal keys must keep their input order — the property AC-SpGEMM's
  // bit-stability rests on.
  std::vector<std::uint64_t> keys{2, 1, 2, 1, 2};
  std::vector<int> payload{10, 11, 12, 13, 14};
  MetricCounters m;
  block_radix_sort(std::span(keys), std::span(payload), 2, m);
  EXPECT_EQ(payload, (std::vector<int>{11, 13, 10, 12, 14}));
}

TEST(BlockPrimitives, RadixSortWorkScalesWithBits) {
  std::vector<std::uint64_t> keys(256);
  std::vector<int> payload(256);
  std::iota(keys.rbegin(), keys.rend(), 0);
  MetricCounters narrow, wide;
  auto k1 = keys;
  auto p1 = payload;
  block_radix_sort(std::span(k1), std::span(p1), 8, narrow);
  auto k2 = keys;
  auto p2 = payload;
  block_radix_sort(std::span(k2), std::span(p2), 32, wide);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(narrow.sort_pass_elements, 256u * 2);
  EXPECT_EQ(wide.sort_pass_elements, 256u * 8);
}

TEST(BlockPrimitives, RadixSortRandomAgainstStdSort) {
  std::mt19937_64 rng(77);
  std::vector<std::uint64_t> keys(1000);
  for (auto& k : keys) k = rng() & 0xFFFFF;
  std::vector<int> payload(1000, 0);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  MetricCounters m;
  block_radix_sort(std::span(keys), std::span(payload), 20, m);
  EXPECT_EQ(keys, expect);
}

TEST(BlockPrimitives, RadixSortHandlesTinyInputs) {
  std::vector<std::uint64_t> empty;
  std::vector<int> payload;
  MetricCounters m;
  block_radix_sort(std::span(empty), std::span(payload), 10, m);
  std::vector<std::uint64_t> one{5};
  std::vector<int> p1{0};
  block_radix_sort(std::span(one), std::span(p1), 10, m);
  EXPECT_EQ(one[0], 5u);
}

}  // namespace
}  // namespace acs::sim
