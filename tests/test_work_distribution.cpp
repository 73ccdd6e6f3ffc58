#include "core/work_distribution.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace acs {
namespace {

std::vector<offset_t> counts(std::initializer_list<offset_t> c) { return c; }

TEST(WorkDistribution, SizeIsTotalCount) {
  sim::MetricCounters m;
  const auto c = counts({5, 3, 4, 4, 5, 3});  // the paper's Fig. 3 example
  WorkDistribution wd(c, m);
  EXPECT_EQ(wd.size(), 24);
}

TEST(WorkDistribution, PaperFigure3FirstDraw) {
  // Fig. 3(b): taking 10 elements must cover entries 0 (5 products),
  // 1 (3 products) and 2 (first 2 of 4 products, from the row's end).
  sim::MetricCounters m;
  const auto c = counts({5, 3, 4, 4, 5, 3});
  WorkDistribution wd(c, m);
  std::vector<WorkDistribution::Item> items;
  wd.receive(10, items, m);
  ASSERT_EQ(items.size(), 10u);
  // Entry 0 contributes offsets 4..0 (reverse), entry 1 offsets 2..0,
  // entry 2 offsets 3,2 (the tail of its 4 products).
  EXPECT_EQ(items[0].a_idx, 0);
  EXPECT_EQ(items[0].b_off, 4);
  EXPECT_EQ(items[4].a_idx, 0);
  EXPECT_EQ(items[4].b_off, 0);
  EXPECT_EQ(items[5].a_idx, 1);
  EXPECT_EQ(items[5].b_off, 2);
  EXPECT_EQ(items[8].a_idx, 2);
  EXPECT_EQ(items[8].b_off, 3);
  EXPECT_EQ(items[9].a_idx, 2);
  EXPECT_EQ(items[9].b_off, 2);
  // Fig. 3(c): 14 elements remain.
  EXPECT_EQ(wd.size(), 14);
}

TEST(WorkDistribution, SplitRowActsShorterNextIteration) {
  // After a partial draw, the next draw of the same entry must continue
  // with the remaining (lower) offsets.
  sim::MetricCounters m;
  const auto c = counts({6});
  WorkDistribution wd(c, m);
  std::vector<WorkDistribution::Item> items;
  wd.receive(4, items, m);
  EXPECT_EQ(items.back().b_off, 2);
  items.clear();
  wd.receive(2, items, m);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].b_off, 1);
  EXPECT_EQ(items[1].b_off, 0);
  EXPECT_EQ(wd.size(), 0);
}

TEST(WorkDistribution, EveryProductDeliveredExactlyOnce) {
  sim::MetricCounters m;
  const auto c = counts({3, 0, 7, 1, 0, 2});
  WorkDistribution wd(c, m);
  std::vector<std::vector<bool>> seen;
  for (offset_t n : c) seen.emplace_back(static_cast<std::size_t>(n), false);
  std::vector<WorkDistribution::Item> items;
  while (wd.size() > 0) {
    items.clear();
    wd.receive(std::min<offset_t>(4, wd.size()), items, m);
    for (auto [a, b] : items) {
      ASSERT_FALSE(seen[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]);
      seen[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
    }
  }
  for (const auto& row : seen)
    for (bool s : row) EXPECT_TRUE(s);
}

TEST(WorkDistribution, ZeroCountEntriesAreSkipped) {
  sim::MetricCounters m;
  const auto c = counts({0, 0, 2, 0});
  WorkDistribution wd(c, m);
  std::vector<WorkDistribution::Item> items;
  wd.receive(2, items, m);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].a_idx, 2);
  EXPECT_EQ(items[1].a_idx, 2);
}

TEST(WorkDistribution, FastForwardMatchesReceive) {
  // Restart contract: fast_forward(k) must leave the distribution in the
  // same state as receive(k).
  sim::MetricCounters m;
  const auto c = counts({4, 2, 6, 1});
  WorkDistribution wd1(c, m), wd2(c, m);
  std::vector<WorkDistribution::Item> items;
  wd1.receive(7, items, m);
  wd2.fast_forward(7, m);
  EXPECT_EQ(wd1.size(), wd2.size());
  std::vector<WorkDistribution::Item> i1, i2;
  wd1.receive(wd1.size(), i1, m);
  wd2.receive(wd2.size(), i2, m);
  ASSERT_EQ(i1.size(), i2.size());
  for (std::size_t i = 0; i < i1.size(); ++i) {
    EXPECT_EQ(i1[i].a_idx, i2[i].a_idx);
    EXPECT_EQ(i1[i].b_off, i2[i].b_off);
  }
}

TEST(WorkDistribution, ConsumedTracksTotal) {
  sim::MetricCounters m;
  const auto c = counts({5, 5});
  WorkDistribution wd(c, m);
  std::vector<WorkDistribution::Item> items;
  wd.fast_forward(3, m);
  wd.receive(4, items, m);
  EXPECT_EQ(wd.consumed(), 7);
  EXPECT_EQ(wd.size(), 3);
}

TEST(WorkDistribution, VisitSegmentsMatchesTheReceiveOracle) {
  // The ESC kernel draws through receive_visit_segments; receive is the
  // item-by-item oracle. Over seeded random counts (zeros included) and
  // draw sizes, with and without a restart's fast_forward first, the visit
  // must cover exactly the items receive emits, in the same order, and
  // charge the same counters.
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<offset_t> c(1 + rng() % 40);
    for (auto& n : c)
      n = rng() % 3 == 0 ? 0 : static_cast<offset_t>(rng() % 9);
    sim::MetricCounters m_oracle, m_visit;
    WorkDistribution oracle(c, m_oracle), visit(c, m_visit);
    if (trial % 2 == 1 && oracle.size() > 0) {
      const auto skip = static_cast<offset_t>(
          rng() % static_cast<std::uint64_t>(oracle.size()));
      oracle.fast_forward(skip, m_oracle);
      visit.fast_forward(skip, m_visit);
    }
    while (oracle.size() > 0) {
      const offset_t draw = std::min<offset_t>(
          oracle.size(), 1 + static_cast<offset_t>(rng() % 12));
      std::vector<WorkDistribution::Item> expected;
      oracle.receive(draw, expected, m_oracle);
      std::vector<WorkDistribution::Item> got;
      visit.receive_visit_segments(
          draw,
          [&got](index_t a, index_t b_lo, index_t b_hi) {
            for (index_t off = b_hi; off-- > b_lo;) got.push_back({a, off});
          },
          m_visit);
      ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].a_idx, expected[i].a_idx) << "trial " << trial;
        EXPECT_EQ(got[i].b_off, expected[i].b_off) << "trial " << trial;
      }
      EXPECT_EQ(m_visit, m_oracle) << "trial " << trial;
      EXPECT_EQ(visit.size(), oracle.size());
      EXPECT_EQ(visit.consumed(), oracle.consumed());
    }
  }
}

TEST(WorkDistribution, EmptyDistribution) {
  sim::MetricCounters m;
  const std::vector<offset_t> c;
  WorkDistribution wd(c, m);
  EXPECT_EQ(wd.size(), 0);
}

}  // namespace
}  // namespace acs
