#include <gtest/gtest.h>

#include "arch/arch_id.hpp"
#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"
#include "sim/metrics.hpp"

namespace acs {
namespace {

TEST(SpgemmStatsExtras, PipelineObservabilityCounters) {
  const auto m = gen_uniform_random<double>(2000, 2000, 8.0, 3.0, 601);
  SpgemmStats stats;
  multiply(m, m, Config{}, &stats);
  EXPECT_GT(stats.chunks_created, 0u);
  EXPECT_GT(stats.esc_iterations, 0u);
  EXPECT_EQ(stats.long_row_chunks, 0u);  // no long rows in this matrix
  // Blocks split rows at nearly every boundary: some merging expected.
  EXPECT_GT(stats.merged_rows, 0u);
}

TEST(SpgemmStatsExtras, LongRowChunksCounted) {
  const auto a = gen_uniform_random<double>(300, 60, 5.0, 1.0, 602);
  const auto b =
      inject_long_rows(gen_uniform_random<double>(60, 900, 3.0, 1.0, 603), 6,
                       500, 604);
  Config cfg;
  cfg.long_row_threshold = 64;
  SpgemmStats stats;
  multiply(a, b, cfg, &stats);
  EXPECT_GT(stats.long_row_chunks, 0u);
}

TEST(SpgemmStatsExtras, StageTimeAccumulatesDuplicates) {
  SpgemmStats s;
  s.stage_times_s = {{"ESC", 1.0}, {"ESC", 2.0}, {"CC", 0.5}};
  EXPECT_DOUBLE_EQ(s.stage_time("ESC"), 3.0);
  EXPECT_DOUBLE_EQ(s.stage_time("CC"), 0.5);
  EXPECT_DOUBLE_EQ(s.stage_time("missing"), 0.0);
}

TEST(SpgemmStatsExtras, GflopsZeroWithoutTime) {
  SpgemmStats s;
  s.intermediate_products = 1000;
  EXPECT_EQ(s.gflops(), 0.0);
  s.sim_time_s = 1e-3;
  EXPECT_DOUBLE_EQ(s.gflops(), 2.0 * 1000 / 1e-3 / 1e9);
}

TEST(MetricCounters, UniformBlockSplitConservesEveryField) {
  // Regression (ISSUE 3 satellite): the old per-block division dropped the
  // remainder — splitting 10 units across 3 blocks lost one. The split must
  // conserve each field exactly, for any block count.
  sim::MetricCounters total;
  total.global_bytes_coalesced = 1000;
  total.global_bytes_scattered = 999;   // not divisible by 7
  total.scratch_ops = 10;
  total.sort_pass_elements = 6;         // fewer than the block count
  total.scan_elements = 1;
  total.hash_probes = 7;                // exactly divisible
  total.atomic_ops = 13;
  total.flops = 12345;
  total.compute_ops = 2;
  for (std::size_t count : {1u, 3u, 7u, 16u}) {
    const auto blocks = sim::uniform_block_split(count, total);
    ASSERT_EQ(blocks.size(), count);
    sim::MetricCounters sum;
    for (const auto& b : blocks) sum = sum + b;
    EXPECT_EQ(sum.global_bytes_coalesced, total.global_bytes_coalesced);
    EXPECT_EQ(sum.global_bytes_scattered, total.global_bytes_scattered);
    EXPECT_EQ(sum.scratch_ops, total.scratch_ops);
    EXPECT_EQ(sum.sort_pass_elements, total.sort_pass_elements);
    EXPECT_EQ(sum.scan_elements, total.scan_elements);
    EXPECT_EQ(sum.hash_probes, total.hash_probes);
    EXPECT_EQ(sum.atomic_ops, total.atomic_ops);
    EXPECT_EQ(sum.flops, total.flops);
    EXPECT_EQ(sum.compute_ops, total.compute_ops);
    // And the distribution is as even as integers allow.
    for (const auto& b : blocks) {
      EXPECT_LE(b.flops, total.flops / count + 1);
      EXPECT_GE(b.flops, total.flops / count);
    }
  }
  EXPECT_TRUE(sim::uniform_block_split(0, total).empty());
}

TEST(MetricCounters, AdditionAggregatesEveryField) {
  sim::MetricCounters a, b;
  a.global_bytes_coalesced = 1;
  a.global_bytes_scattered = 2;
  a.scratch_ops = 3;
  a.sort_pass_elements = 4;
  a.scan_elements = 5;
  a.hash_probes = 6;
  a.atomic_ops = 7;
  a.flops = 8;
  a.compute_ops = 9;
  b = a;
  const auto c = a + b;
  EXPECT_EQ(c.global_bytes_coalesced, 2u);
  EXPECT_EQ(c.global_bytes_scattered, 4u);
  EXPECT_EQ(c.scratch_ops, 6u);
  EXPECT_EQ(c.sort_pass_elements, 8u);
  EXPECT_EQ(c.scan_elements, 10u);
  EXPECT_EQ(c.hash_probes, 12u);
  EXPECT_EQ(c.atomic_ops, 14u);
  EXPECT_EQ(c.flops, 16u);
  EXPECT_EQ(c.compute_ops, 18u);
}

TEST(ConfigExtras, InputValidationOption) {
  auto m = gen_uniform_random<double>(50, 50, 3.0, 1.0, 605);
  Csr<double> broken = m;
  broken.col_idx[0] = 50;  // out of range
  Config lax, strict;
  strict.validate_inputs = true;
  EXPECT_NO_THROW(multiply(m, m, strict));
  EXPECT_THROW(multiply(broken, m, strict), std::invalid_argument);
}

TEST(ConfigExtras, BigDeviceChangesModeledTimeNotOutput) {
  // The backend's device prices the blocks; it never changes what they
  // compute. Which device is faster depends on the input: one that fits a
  // wave can run slower on the big device's lower per-SM bandwidth.
  const auto m = gen_uniform_random<double>(1500, 1500, 8.0, 2.0, 606);
  Config titan, big;
  big.arch = arch::ArchId::kSimBigDevice;
  SpgemmStats st, sb;
  const auto ct = multiply(m, m, titan, &st);
  const auto cb = multiply(m, m, big, &sb);
  EXPECT_TRUE(cb.equals_exact(ct));
  EXPECT_GT(st.sim_time_s, 0.0);
  EXPECT_GT(sb.sim_time_s, 0.0);
  EXPECT_NE(sb.sim_time_s, st.sim_time_s);
}

}  // namespace
}  // namespace acs
