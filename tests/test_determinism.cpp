#include <gtest/gtest.h>

#include <cmath>

#include "arch/arch_id.hpp"
#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"

namespace acs {
namespace {

/// Bit-stability property tests (the paper's headline guarantee): identical
/// inputs must produce bit-identical outputs across repeated runs, scheduler
/// thread counts, pool sizes (i.e. restart patterns) and block shapes that
/// change iteration boundaries. No value quantization here — raw
/// floating-point results are compared exactly.

Csr<float> hard_matrix() {
  // Wide dynamic range values maximize the chance that any accumulation
  // order difference shows up in the bits.
  auto m = gen_powerlaw<float>(900, 900, 7.0, 1.6, 300, 777);
  for (std::size_t i = 0; i < m.values.size(); ++i)
    m.values[i] *= static_cast<float>(1 + (i % 13)) *
                   ((i % 7 == 0) ? 1e6f : 1e-6f);
  return m;
}

TEST(Determinism, RepeatedRunsBitIdentical) {
  const auto m = hard_matrix();
  const auto c1 = multiply(m, m);
  const auto c2 = multiply(m, m);
  EXPECT_TRUE(c1.equals_exact(c2));
}

TEST(Determinism, IndependentOfSchedulerThreads) {
  const auto m = hard_matrix();
  Config seq, par;
  seq.scheduler_threads = 1;
  par.scheduler_threads = 8;
  EXPECT_TRUE(multiply(m, m, seq).equals_exact(multiply(m, m, par)));
}

TEST(Determinism, IndependentOfRestarts) {
  // A shrunken pool changes where blocks stop and replay; results must not.
  const auto m = hard_matrix();
  Config roomy, tight;
  tight.pool_override_bytes = 16 * 1024;
  SpgemmStats stats;
  const auto c_tight = multiply(m, m, tight, &stats);
  EXPECT_GT(stats.restarts, 0);
  EXPECT_TRUE(multiply(m, m, roomy).equals_exact(c_tight));

  // R-MAT hub rows outgrow the retain capacity and are written as partial
  // chunks: a relaunch that cut its iterations anywhere else than the
  // uninterrupted run would split those rows into different segment sums.
  const auto r = gen_rmat<double>(11, 16.0, 0.57, 0.19, 0.19, 7);
  for (const unsigned threads : {1u, 4u}) {
    Config roomy_r, tight_r;
    roomy_r.scheduler_threads = tight_r.scheduler_threads = threads;
    tight_r.pool_override_bytes = 16 * 1024;
    SpgemmStats roomy_stats, tight_stats;
    const auto c_roomy = multiply(r, r, roomy_r, &roomy_stats);
    const auto c_tight_r = multiply(r, r, tight_r, &tight_stats);
    EXPECT_EQ(roomy_stats.restarts, 0) << threads << " threads";
    EXPECT_GT(tight_stats.restarts, 0) << threads << " threads";
    EXPECT_TRUE(c_roomy.equals_exact(c_tight_r)) << threads << " threads";
  }
}

TEST(Determinism, EachBlockShapeIsInternallyBitStable) {
  // Bit-stability is a per-configuration guarantee: different block shapes
  // group chunk partial sums differently (the merge adds subtree sums), so
  // cross-shape results may differ in the last bits — but every shape must
  // be bit-stable against itself, including with a thread pool.
  const auto m = hard_matrix();
  for (int shape = 0; shape < 2; ++shape) {
    Config cfg;
    if (shape == 1) {
      cfg.nnz_per_block = 32;
      cfg.threads = 32;
      cfg.elements_per_thread = 8;
      cfg.retain_per_thread = 2;
    }
    const auto c1 = multiply(m, m, cfg);
    Config par = cfg;
    par.scheduler_threads = 8;
    EXPECT_TRUE(c1.equals_exact(multiply(m, m, cfg))) << "shape " << shape;
    EXPECT_TRUE(c1.equals_exact(multiply(m, m, par))) << "shape " << shape;
  }
}

TEST(Determinism, BlockShapesAgreeOnExactlyRepresentableValues) {
  // With values whose sums are exact in floating point, every grouping gives
  // the same result — so different block shapes must agree exactly.
  auto m = gen_powerlaw<double>(700, 700, 6.0, 1.6, 250, 99);
  for (auto& v : m.values)
    v = std::round(v * 4.0) / 4.0 + 0.25;
  Config big, small;
  small.nnz_per_block = 32;
  small.threads = 32;
  small.elements_per_thread = 8;
  small.retain_per_thread = 2;
  big.long_row_threshold = small.long_row_threshold = 2048;
  EXPECT_TRUE(multiply(m, m, big).equals_exact(multiply(m, m, small)));
}

TEST(Determinism, RetainAblationAgreesOnExactlyRepresentableValues) {
  // Retention changes where rows are split into chunks, i.e. the grouping of
  // partial sums; with exactly representable values both settings must agree
  // exactly (and each is bit-stable against itself by the tests above).
  auto m = gen_powerlaw<double>(700, 700, 6.0, 1.6, 250, 98);
  for (auto& v : m.values)
    v = std::round(v * 4.0) / 4.0 + 0.25;
  Config carry, flush;
  flush.retain_per_thread = 0;
  EXPECT_TRUE(multiply(m, m, carry).equals_exact(multiply(m, m, flush)));
}

TEST(Determinism, IndependentOfBitReduction) {
  const auto m = hard_matrix();
  Config dyn, stat;
  stat.dynamic_bits = false;
  EXPECT_TRUE(multiply(m, m, dyn).equals_exact(multiply(m, m, stat)));
}

TEST(Determinism, LongRowPathBitStableAcrossRunsAndThreads) {
  // Exercise the pointer-chunk path (long rows of B) and check the full
  // bit-stability contract on it.
  const auto a = gen_uniform_random<float>(200, 60, 6.0, 2.0, 41);
  const auto b =
      inject_long_rows(gen_uniform_random<float>(60, 1200, 3.0, 1.0, 42), 8,
                       700, 43);
  Config cfg;
  cfg.long_row_threshold = 96;
  const auto c1 = multiply(a, b, cfg);
  const auto c2 = multiply(a, b, cfg);
  EXPECT_TRUE(c1.equals_exact(c2));
  Config par = cfg;
  par.scheduler_threads = 8;
  EXPECT_TRUE(c1.equals_exact(multiply(a, b, par)));
  Config tight = cfg;
  tight.pool_override_bytes = 8 * 1024;
  EXPECT_TRUE(c1.equals_exact(multiply(a, b, tight)));
}

TEST(Determinism, ChunkCopyIndependentOfSchedulerThreads) {
  // About 2.4M output entries, several copy grains: at 4 scheduler threads
  // the chunk copy splits C's rows into tasks, at 1 it runs inline. Neither
  // the output bits nor any modeled number may tell the two apart. With a
  // long-row threshold of 7, rows of A with one entry whose row of B is
  // long become unshared pointer chunks that the split copy expands.
  const auto m = gen_uniform_random<double>(150000, 150000, 4.0, 3.0, 21);
  for (const index_t long_row_threshold : {0, 7}) {
    for (const auto backend :
         {arch::ArchId::kSimTitanXp, arch::ArchId::kNativeCpu}) {
      Config one;
      one.arch = backend;
      one.long_row_threshold = long_row_threshold;
      Config four = one;
      four.scheduler_threads = 4;
      SpgemmStats s1, s4;
      const auto c1 = multiply(m, m, one, &s1);
      const auto c4 = multiply(m, m, four, &s4);
      SCOPED_TRACE(testing::Message()
                   << "long_row_threshold=" << long_row_threshold
                   << " native=" << (backend == arch::ArchId::kNativeCpu));
      EXPECT_TRUE(c1.equals_exact(c4));
      EXPECT_EQ(s1.sim_time_s, s4.sim_time_s);
      EXPECT_EQ(s1.stage_times_s, s4.stage_times_s);
      EXPECT_EQ(s1.metrics, s4.metrics);
      if (long_row_threshold > 0) {
        EXPECT_GT(s4.long_row_chunks, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace acs
