#include "core/acspgemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "baselines/spa_gustavson.hpp"
#include "matrix/coo.hpp"
#include "matrix/generators.hpp"
#include "matrix/transpose.hpp"
#include "test_util.hpp"

namespace acs {
namespace {

using testutil::quantize;
using testutil::single_entry;

/// AC-SpGEMM vs the Gustavson oracle, with quantized values so that any
/// accumulation order gives bit-identical sums (see test_util.hpp).
template <class T>
void expect_matches_oracle(const Csr<T>& a, const Csr<T>& b,
                           const Config& cfg = {}) {
  const auto c = multiply(a, b, cfg);
  ASSERT_EQ(c.validate(), "");
  const auto ref = spa_multiply(a, b);
  EXPECT_EQ(c.row_ptr, ref.row_ptr);
  EXPECT_EQ(c.col_idx, ref.col_idx);
  EXPECT_EQ(c.values, ref.values);
}

TEST(AcSpgemm, TinyKnownProduct) {
  Csr<double> a, b;
  a.rows = a.cols = 2;
  a.row_ptr = {0, 2, 3};
  a.col_idx = {0, 1, 1};
  a.values = {1, 2, 3};
  b.rows = b.cols = 2;
  b.row_ptr = {0, 1, 3};
  b.col_idx = {0, 0, 1};
  b.values = {4, 1, 5};
  const auto c = multiply(a, b);
  EXPECT_EQ(c.values, (std::vector<double>{6, 10, 3, 15}));
}

TEST(AcSpgemm, UniformRandomSelfProduct) {
  const auto m = quantize(gen_uniform_random<double>(800, 800, 6.0, 3.0, 11));
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, FloatPrecision) {
  const auto m = quantize(gen_uniform_random<float>(500, 500, 5.0, 2.0, 12));
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, PowerlawRows) {
  const auto m = quantize(gen_powerlaw<double>(1200, 1200, 5.0, 1.6, 400, 13));
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, Stencil2d) {
  const auto m = quantize(gen_stencil_2d<double>(40, 40, 14));
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, BandedDense) {
  const auto m = quantize(gen_banded<double>(300, 20, 15));
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, RmatGraph) {
  const auto m = quantize(gen_rmat<double>(9, 10.0, 0.57, 0.19, 0.19, 16));
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, NonSquareWithTranspose) {
  const auto m = quantize(gen_uniform_random<double>(300, 120, 7.0, 3.0, 17));
  expect_matches_oracle(m, transpose(m));
}

TEST(AcSpgemm, LongRowsOfBTriggerPointerChunks) {
  // Long rows live in B (Section 3.4): rows of B exceeding the threshold
  // become pointer chunks carrying the factor from A.
  const auto a = quantize(gen_uniform_random<double>(300, 80, 6.0, 2.0, 18));
  const auto b = quantize(
      inject_long_rows(gen_uniform_random<double>(80, 1500, 3.0, 1.0, 19), 10,
                       800, 20));
  Config cfg;
  cfg.long_row_threshold = 128;  // make the long-row path easy to hit
  expect_matches_oracle(a, b, cfg);
}

TEST(AcSpgemm, LongRowsDisabledStillCorrect) {
  const auto a = quantize(gen_uniform_random<double>(300, 80, 6.0, 2.0, 21));
  const auto b = quantize(
      inject_long_rows(gen_uniform_random<double>(80, 1500, 3.0, 1.0, 22), 10,
                       800, 23));
  Config cfg;
  cfg.long_row_handling = false;
  expect_matches_oracle(a, b, cfg);
}

TEST(AcSpgemm, LongRowSharedAcrossBlocksMerges) {
  // Multiple rows of A referencing the same long row of B, plus regular
  // entries in the same output rows: pointer chunks must merge with ESC
  // chunks.
  Coo<double> acoo;
  acoo.rows = 4;
  acoo.cols = 50;
  for (index_t r = 0; r < 4; ++r) {
    acoo.push(r, 0, 2.0);   // B row 0 is long
    acoo.push(r, 10, 1.0);  // regular row
    acoo.push(r, 11, 0.5);
  }
  auto a = acoo.to_csr();
  // Build B with row 0 deliberately long (500 entries) and the rest short.
  Coo<double> bcoo;
  bcoo.rows = 50;
  bcoo.cols = 600;
  for (index_t c = 0; c < 500; ++c) bcoo.push(0, c, 0.25 * ((c % 7) + 1));
  for (index_t r = 1; r < 50; ++r)
    for (index_t j = 0; j < 4; ++j)
      bcoo.push(r, (r * 13 + j * 41) % 600, 0.5 * (j + 1));
  auto b = bcoo.to_csr();
  Config cfg;
  cfg.long_row_threshold = 64;
  expect_matches_oracle(a, b, cfg);
}

TEST(AcSpgemm, BlockDenseHighCompaction) {
  const auto m = quantize(gen_block_dense<double>(300, 300, 32, 2, 24));
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, EmptyMatrix) {
  Csr<double> a;
  a.rows = 10;
  a.cols = 10;
  a.row_ptr.assign(11, 0);
  const auto c = multiply(a, a);
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_EQ(c.rows, 10);
  EXPECT_EQ(c.validate(), "");
}

TEST(AcSpgemm, EmptyRowsInterleaved) {
  Coo<double> coo;
  coo.rows = 8;
  coo.cols = 8;
  coo.push(1, 1, 1.0);
  coo.push(1, 2, 2.0);
  coo.push(6, 1, 3.0);
  auto m = coo.to_csr();
  expect_matches_oracle(m, m);
}

TEST(AcSpgemm, IdentityIsNeutral) {
  const auto m = quantize(gen_uniform_random<double>(150, 150, 4.0, 1.0, 25));
  const auto id = Csr<double>::identity(150);
  EXPECT_TRUE(multiply(m, id).equals_exact(m));
  EXPECT_TRUE(multiply(id, m).equals_exact(m));
}

TEST(AcSpgemm, DimensionMismatchThrows) {
  const auto a = gen_uniform_random<double>(10, 20, 3.0, 1.0, 26);
  EXPECT_THROW(multiply(a, a), std::invalid_argument);
}

TEST(AcSpgemm, SampledPoolSizingChecksDimensionsFirst) {
  // The sampled estimate indexes B's rows by A's column ids, so the
  // dimension check has to run before it.
  const auto b = gen_uniform_random<double>(8, 8, 3.0, 1.0, 29);
  const auto a = single_entry<double>(4, 9, 8);
  Config cfg;
  cfg.pool_sizing = PoolSizing::kSampled;
  EXPECT_THROW(multiply(a, b, cfg), std::invalid_argument);
}

TEST(AcSpgemm, BadConfigThrows) {
  const auto m = gen_uniform_random<double>(10, 10, 3.0, 1.0, 27);
  Config cfg;
  cfg.retain_per_thread = cfg.elements_per_thread;  // retain must be smaller
  EXPECT_THROW(multiply(m, m, cfg), std::invalid_argument);
  Config cfg2;
  cfg2.threads = 0;
  EXPECT_THROW(multiply(m, m, cfg2), std::invalid_argument);
  Config cfg3;
  cfg3.elements_per_thread = 200;  // blows the 15-bit compaction counters
  EXPECT_THROW(multiply(m, m, cfg3), std::invalid_argument);
}

TEST(AcSpgemm, SmallBlocksForceRowSplitsAndMerges) {
  // Tiny blocks guarantee rows split across many chunks, exercising all
  // merge paths.
  const auto m = quantize(gen_uniform_random<double>(300, 300, 12.0, 4.0, 28));
  Config cfg;
  cfg.threads = 8;
  cfg.nnz_per_block = 8;
  cfg.elements_per_thread = 4;
  cfg.retain_per_thread = 2;
  expect_matches_oracle(m, m, cfg);
}

TEST(AcSpgemm, RetainZeroAblation) {
  const auto m = quantize(gen_uniform_random<double>(400, 400, 6.0, 2.0, 29));
  Config cfg;
  cfg.retain_per_thread = 0;
  expect_matches_oracle(m, m, cfg);
}

TEST(AcSpgemm, StaticBitsAblation) {
  const auto m = quantize(gen_uniform_random<double>(400, 400, 6.0, 2.0, 30));
  Config cfg;
  cfg.dynamic_bits = false;
  expect_matches_oracle(m, m, cfg);
}

TEST(AcSpgemm, StatsArePopulated) {
  const auto m = quantize(gen_uniform_random<double>(600, 600, 8.0, 3.0, 31));
  SpgemmStats stats;
  multiply(m, m, Config{}, &stats);
  EXPECT_GT(stats.sim_time_s, 0.0);
  EXPECT_GT(stats.gflops(), 0.0);
  EXPECT_GT(stats.intermediate_products, 0);
  EXPECT_GT(stats.pool_used_bytes, 0u);
  EXPECT_GE(stats.pool_bytes, stats.pool_used_bytes);
  EXPECT_GT(stats.helper_bytes, 0u);
  EXPECT_EQ(stats.restarts, 0);
  // All seven pipeline stages must be accounted.
  for (const char* stage : {"GLB", "ESC", "MCC", "MM", "PM", "SM", "CC"})
    EXPECT_GE(stats.stage_time(stage), 0.0) << stage;
  EXPECT_GT(stats.stage_time("ESC"), 0.0);
}

TEST(AcSpgemm, TinyPoolForcesRestartsButStaysCorrect) {
  const auto m = quantize(gen_uniform_random<double>(500, 500, 8.0, 3.0, 32));
  Config cfg;
  cfg.pool_override_bytes = 4 * 1024;  // absurdly small: many restarts
  SpgemmStats stats;
  const auto c = multiply(m, m, cfg, &stats);
  EXPECT_GT(stats.restarts, 0);
  const auto ref = spa_multiply(m, m);
  EXPECT_TRUE(c.equals_exact(ref));
}

TEST(AcSpgemm, GeometricGrowthConvergesFromHundredfoldUnderestimate) {
  // Regression (ISSUE 3 satellite): restart growth used to add a flat
  // initial-size step per round, so a pool undersized by a factor F needed
  // O(F) restarts. Doubling (restart_growth_step, capped at 1 GiB) makes a
  // 100x under-estimate converge in O(log F) rounds — well under the ~7 the
  // issue allows — while staying bit-identical to the ample-pool run.
  const auto m = quantize(gen_uniform_random<double>(500, 500, 8.0, 3.0, 36));
  SpgemmStats ample;
  const auto ref = multiply(m, m, Config{}, &ample);
  ASSERT_GT(ample.pool_used_bytes, 0u);

  Config cfg;
  cfg.pool_override_bytes = std::max<std::size_t>(ample.pool_used_bytes / 100, 1);
  SpgemmStats stats;
  const auto c = multiply(m, m, cfg, &stats);
  EXPECT_GT(stats.restarts, 0);
  EXPECT_LE(stats.restarts, 7);
  EXPECT_GE(stats.pool_bytes, stats.pool_used_bytes);
  EXPECT_TRUE(c.equals_exact(ref));
}

TEST(AcSpgemm, PoolEstimateRespectsLowerBound) {
  const auto m = gen_uniform_random<double>(100, 100, 4.0, 1.0, 33);
  Config cfg;
  EXPECT_GE(estimate_chunk_pool_bytes(m, m, cfg), cfg.pool_lower_bound_bytes);
  cfg.pool_override_bytes = 777;
  EXPECT_EQ(estimate_chunk_pool_bytes(m, m, cfg), 777u);
}

TEST(AcSpgemm, PoolEstimateScalesWithDensity) {
  Config cfg;
  cfg.pool_lower_bound_bytes = 0;
  const auto sparse = gen_uniform_random<double>(2000, 2000, 3.0, 1.0, 34);
  const auto dense = gen_uniform_random<double>(2000, 2000, 30.0, 5.0, 35);
  EXPECT_LT(estimate_chunk_pool_bytes(sparse, sparse, cfg),
            estimate_chunk_pool_bytes(dense, dense, cfg));
}

}  // namespace
}  // namespace acs
