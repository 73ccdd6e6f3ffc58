#include "sim/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace acs::sim {
namespace {

TEST(CostModel, MoreBytesTakeLonger) {
  const DeviceConfig dev{};
  MetricCounters small, large;
  small.global_bytes_coalesced = 1 << 10;
  large.global_bytes_coalesced = 1 << 20;
  EXPECT_LT(block_time_s(small, dev), block_time_s(large, dev));
}

TEST(CostModel, ScatteredBytesCostMoreThanCoalesced) {
  const DeviceConfig dev{};
  MetricCounters co, sc;
  co.global_bytes_coalesced = 1 << 20;
  sc.global_bytes_scattered = 1 << 20;
  EXPECT_GT(block_time_s(sc, dev), 4 * block_time_s(co, dev));
}

TEST(CostModel, SortPassesAddComputeTime) {
  const DeviceConfig dev{};
  MetricCounters few, many;
  few.sort_pass_elements = 1 << 14;
  many.sort_pass_elements = 1 << 22;
  EXPECT_LT(block_time_s(few, dev), block_time_s(many, dev));
}

TEST(CostModel, EmptyKernelCostsLaunchOverheadOnly) {
  const DeviceConfig dev{};
  const auto t = schedule_blocks(std::vector<double>{}, dev);
  EXPECT_DOUBLE_EQ(t.time_s, dev.kernel_launch_us * 1e-6);
  EXPECT_DOUBLE_EQ(t.multiprocessor_load, 1.0);
}

TEST(CostModel, UniformBlocksBalancePerfectly) {
  DeviceConfig dev{};
  dev.num_sms = 4;
  dev.blocks_per_sm = 1;
  const std::vector<double> blocks(64, 1e-5);
  const auto t = schedule_blocks(blocks, dev);
  EXPECT_NEAR(t.multiprocessor_load, 1.0, 1e-9);
  EXPECT_NEAR(t.time_s, 16 * 1e-5 + dev.kernel_launch_us * 1e-6, 1e-9);
}

TEST(CostModel, OneGiantBlockUnbalances) {
  DeviceConfig dev{};
  dev.num_sms = 4;
  dev.blocks_per_sm = 1;
  std::vector<double> blocks(8, 1e-6);
  blocks.push_back(1e-3);
  const auto t = schedule_blocks(blocks, dev);
  EXPECT_LT(t.multiprocessor_load, 0.1);
}

TEST(CostModel, MakespanAtLeastCriticalPath) {
  DeviceConfig dev{};
  dev.num_sms = 2;
  dev.blocks_per_sm = 2;
  const std::vector<double> blocks{5e-4, 1e-6, 1e-6, 1e-6};
  const auto t = schedule_blocks(blocks, dev);
  EXPECT_GE(t.time_s, 5e-4);
}

TEST(CostModel, MetricsOverloadMatchesTimesOverload) {
  const DeviceConfig dev{};
  std::vector<MetricCounters> ms(3);
  for (auto& m : ms) m.global_bytes_coalesced = 1 << 16;
  std::vector<double> times(3, block_time_s(ms[0], dev));
  EXPECT_DOUBLE_EQ(schedule_blocks(ms, dev).time_s,
                   schedule_blocks(times, dev).time_s);
}

/// The closed form the tuner's predictor prices uniform kernels with is an
/// upper bound on the list schedule the pipeline runs, exact while every
/// block fits in one wave. Its overshoot is bounded by pigeonhole: some
/// slot runs ceil(n / slots) blocks, none shorter than the floor share (the
/// last block of the split; block 0 holds the ceiling share), so the closed
/// form charges at most that many (ceiling − floor) block-time differences
/// too much — a few nanoseconds per wave.
TEST(CostModel, UniformKernelClosedFormBoundsTheListSchedule) {
  const DeviceConfig dev{};
  const auto slots = static_cast<std::size_t>(dev.num_sms * dev.blocks_per_sm);
  std::mt19937_64 rng(4801);
  std::uniform_int_distribution<std::size_t> pick_n(1, 5000);
  std::uniform_real_distribution<double> pick_exp(0.0, 9.5);
  const auto draw = [&]() -> std::uint64_t {
    const double e = pick_exp(rng);  // log10 of the total; some fields 0
    return e < 0.5 ? 0 : static_cast<std::uint64_t>(std::pow(10.0, e));
  };
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = pick_n(rng);
    MetricCounters total;
    total.global_bytes_coalesced = draw();
    total.global_bytes_scattered = draw();
    total.scratch_ops = draw();
    total.sort_pass_elements = draw();
    total.scan_elements = draw();
    total.hash_probes = draw();
    total.atomic_ops = draw();
    total.flops = draw();
    total.compute_ops = draw();
    const auto blocks = uniform_block_split(n, total);
    const double exact = schedule_blocks(blocks, dev).time_s;
    const double closed = uniform_kernel_time_s(total, n, dev);
    const auto waves = static_cast<double>((n + slots - 1) / slots);
    const double slack = waves * (block_time_s(blocks.front(), dev) -
                                  block_time_s(blocks.back(), dev));
    EXPECT_GE(closed, exact * (1.0 - 1e-12)) << "n " << n;
    EXPECT_LE(closed - exact, slack + exact * 1e-12) << "n " << n;
    if (n <= slots) {
      EXPECT_NEAR(closed, exact, exact * 1e-12) << "n " << n;
    }
  }
  EXPECT_DOUBLE_EQ(uniform_kernel_time_s(MetricCounters{}, 0, dev),
                   dev.kernel_launch_us * 1e-6);
}

TEST(CostModel, AtomicsAddLatency) {
  const DeviceConfig dev{};
  MetricCounters none, some;
  some.atomic_ops = 1000000;
  EXPECT_GT(block_time_s(some, dev), block_time_s(none, dev));
}

}  // namespace
}  // namespace acs::sim
