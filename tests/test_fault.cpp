/// Deterministic fault injection for the chunk pool (ISSUE 3): unit tests
/// of the injector policies against a bare ChunkPool, plus the injection
/// sweep — enumerate every allocation attempt of a clean run, then deny
/// exactly attempt i for all i and require bit-identical output. The sweep
/// configurations are chosen so that every restart path is hit: multi-
/// iteration ESC with carried rows (mid-iteration boundaries), Path and
/// Search merge windows, and long-row pointer-chunk creation — proven via
/// trace counters, not assumed. Inputs are quantized (test_util.hpp) so the
/// SPA differential reference must agree exactly as well.

#include "fault/policies.hpp"
#include "fault/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/spa_gustavson.hpp"
#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace acs::fault {
namespace {

// ---------------------------------------------------------------------------
// Injector policies against a bare pool.
// ---------------------------------------------------------------------------

TEST(FaultPolicies, DenyNthDeniesExactlyThatAttempt) {
  ChunkPool pool(1 << 20);
  DenyNthPolicy deny(2);
  pool.set_policy(&deny);
  std::vector<bool> results;
  for (int i = 0; i < 5; ++i) results.push_back(pool.try_allocate(64));
  EXPECT_EQ(results, (std::vector<bool>{true, true, false, true, true}));
  EXPECT_EQ(deny.denials(), 1u);
  EXPECT_EQ(pool.injected_denials(), 1u);
  EXPECT_EQ(pool.capacity_denials(), 0u);
  EXPECT_EQ(pool.alloc_attempts(), 5u);
  EXPECT_EQ(pool.used(), 4u * 64u);  // denied attempt reserved nothing
}

TEST(FaultPolicies, DenyEveryKthIsPeriodic) {
  ChunkPool pool(1 << 20);
  DenyEveryKthPolicy deny(3);  // denies indices 2, 5, 8, ...
  pool.set_policy(&deny);
  int denied = 0;
  for (std::uint64_t i = 0; i < 9; ++i)
    if (!pool.try_allocate(8)) ++denied;
  EXPECT_EQ(denied, 3);
  EXPECT_EQ(deny.denials(), 3u);
}

TEST(FaultPolicies, SeededProbabilisticIsDeterministicPerIndex) {
  SeededProbabilisticPolicy a(42, 0.5), b(42, 0.5), c(43, 0.5);
  std::vector<bool> da, db, dc;
  for (std::uint64_t i = 0; i < 200; ++i) {
    AllocationRequest req;
    req.index = i;
    da.push_back(a.allow(req));
    db.push_back(b.allow(req));
    dc.push_back(c.allow(req));
  }
  EXPECT_EQ(da, db);  // same seed -> same decisions
  EXPECT_NE(da, dc);  // different seed -> different decisions
  EXPECT_GT(a.denials(), 50u);  // ~100 expected of 200 at rate 0.5
  EXPECT_LT(a.denials(), 150u);

  SeededProbabilisticPolicy never(7, 0.0), always(7, 1.0);
  for (std::uint64_t i = 0; i < 50; ++i) {
    AllocationRequest req;
    req.index = i;
    EXPECT_TRUE(never.allow(req));
    EXPECT_FALSE(always.allow(req));
  }
}

TEST(FaultPolicies, ByteBudgetDeniesAtEachBudgetThenAllows) {
  ByteBudgetPolicy budget({100, 300});
  AllocationRequest req;
  req.bytes = 60;
  EXPECT_TRUE(budget.allow(req));    // granted 60 <= 100
  EXPECT_FALSE(budget.allow(req));   // 120 > 100: deny, advance to 300
  EXPECT_TRUE(budget.allow(req));    // granted 120 <= 300
  EXPECT_TRUE(budget.allow(req));    // granted 180 <= 300
  EXPECT_TRUE(budget.allow(req));    // granted 240 <= 300
  EXPECT_TRUE(budget.allow(req));    // granted 300 <= 300 (exact fit)
  EXPECT_FALSE(budget.allow(req));   // 360 > 300: deny, schedule exhausted
  EXPECT_TRUE(budget.allow(req));    // past the schedule: everything goes
  EXPECT_EQ(budget.denials(), 2u);
  EXPECT_EQ(budget.stages_passed(), 2u);
}

TEST(FaultPolicies, PoolSeparatesInjectedFromCapacityDenials) {
  ChunkPool pool(100);
  EXPECT_TRUE(pool.try_allocate(80));
  EXPECT_FALSE(pool.try_allocate(80));  // genuine exhaustion
  EXPECT_EQ(pool.capacity_denials(), 1u);
  EXPECT_EQ(pool.injected_denials(), 0u);
  EXPECT_EQ(pool.used(), 80u);
}

// ---------------------------------------------------------------------------
// Injection sweeps over the pipeline (the tentpole property).
// ---------------------------------------------------------------------------

/// Multi-iteration ESC shape: tiny per-thread resources force many local
/// iterations per block with carried rows, so denials land on mid-iteration
/// boundaries (the resume-point replay path).
Config multi_iteration_config() {
  Config cfg;
  cfg.threads = 32;
  cfg.elements_per_thread = 4;
  cfg.retain_per_thread = 2;
  cfg.nnz_per_block = 32;
  return cfg;
}

/// Merge-heavy shape: small blocks split rows across many chunks, and a low
/// Path-merge bound pushes the widest rows into Search merge.
Config merge_heavy_config() {
  Config cfg;
  cfg.nnz_per_block = 32;
  cfg.path_merge_max_chunks = 4;
  return cfg;
}

void expect_sweep_ok(const SweepReport& report, const char* label) {
  EXPECT_TRUE(report.reference_agrees) << label << ": clean run vs SPA";
  EXPECT_EQ(report.mismatches, 0u)
      << label << ": first mismatch at injection point "
      << report.first_mismatch_point;
  // Every selected injection point exists in the clean run's allocation
  // sequence, so every injected run must have restarted at least once.
  EXPECT_EQ(report.runs_with_restart, report.injected_runs) << label;
  EXPECT_GE(report.total_denials, report.injected_runs) << label;
  EXPECT_TRUE(report.ok()) << label;
}

TEST(FaultSweep, EscIterationBoundariesAllBitIdentical) {
  const auto a = testutil::quantize(
      gen_uniform_random<double>(150, 150, 8.0, 2.0, 99));
  Config cfg = multi_iteration_config();
  trace::TraceSession session;
  cfg.trace = &session;
  const SweepReport report = sweep_injection_points(a, a, cfg);
  expect_sweep_ok(report, "esc-iterations");
  EXPECT_GE(report.allocation_points, 100u);
  // The shape really does run many local iterations per block (so denials
  // landed between iterations, not only at block starts).
  const auto counters = session.counters_snapshot();
  EXPECT_GT(counters.esc_iterations, 2 * counters.esc_blocks);
  // The session saw the clean run too, so it can only record more.
  EXPECT_GE(counters.restarts, report.total_restarts);
}

TEST(FaultSweep, PathAndSearchMergeWindowsAllBitIdentical) {
  const auto a = testutil::quantize(
      gen_powerlaw<double>(200, 200, 6.0, 1.5, 120, 131));
  Config cfg = merge_heavy_config();
  trace::TraceSession session;
  cfg.trace = &session;
  const SweepReport report = sweep_injection_points(a, a, cfg);
  expect_sweep_ok(report, "merge-windows");
  // Both windowed merge cases actually ran, with multiple windows written —
  // denials therefore hit Path/Search window boundaries (windows_done
  // resumption), not just ESC chunks.
  const auto counters = session.counters_snapshot();
  EXPECT_GT(counters.merge_case_rows[trace::kPathMerge], 0u);
  EXPECT_GT(counters.merge_case_rows[trace::kSearchMerge], 0u);
  EXPECT_GT(counters.merge_windows, 0u);
}

TEST(FaultSweep, LongRowChunkCreationAllBitIdentical) {
  const auto a = testutil::quantize(
      gen_uniform_random<double>(120, 60, 4.0, 1.0, 602));
  const auto b = testutil::quantize(inject_long_rows(
      gen_uniform_random<double>(60, 600, 3.0, 1.0, 603), 5, 400, 604));
  Config cfg;
  cfg.long_row_threshold = 64;
  cfg.nnz_per_block = 64;
  trace::TraceSession session;
  cfg.trace = &session;
  const SweepReport report = sweep_injection_points(a, b, cfg);
  expect_sweep_ok(report, "long-rows");
  // Pointer chunks were created (idempotent `long_rows_done` replay path).
  EXPECT_GT(session.counters_snapshot().long_row_chunks, 0u);
}

TEST(FaultSweep, FloatAndMultiThreadSchedulerBitIdentical) {
  const auto a = testutil::quantize(
      gen_powerlaw<float>(150, 150, 5.0, 1.5, 80, 112));
  for (unsigned threads : {1u, 4u}) {
    Config cfg = multi_iteration_config();
    cfg.scheduler_threads = threads;
    const SweepReport report = sweep_injection_points(a, a, cfg);
    expect_sweep_ok(
        report, threads == 1 ? "float 1 thread" : "float 4 threads");
  }
  // And across scheduler widths: the clean outputs agree bit-for-bit.
  Config one = multi_iteration_config(), four = multi_iteration_config();
  four.scheduler_threads = 4;
  EXPECT_TRUE(multiply(a, a, one).equals_exact(multiply(a, a, four)));
}

TEST(FaultSweep, CoversAtLeastHundredInjectionPoints) {
  // Acceptance criterion: the sweep test matrices expose >= 100 distinct
  // injection points in total (each swept exhaustively above).
  const auto esc = testutil::quantize(
      gen_uniform_random<double>(150, 150, 8.0, 2.0, 99));
  const auto merge = testutil::quantize(
      gen_powerlaw<double>(200, 200, 6.0, 1.5, 120, 131));
  const auto lr_a = testutil::quantize(
      gen_uniform_random<double>(120, 60, 4.0, 1.0, 602));
  const auto lr_b = testutil::quantize(inject_long_rows(
      gen_uniform_random<double>(60, 600, 3.0, 1.0, 603), 5, 400, 604));
  Config lr_cfg;
  lr_cfg.long_row_threshold = 64;
  lr_cfg.nnz_per_block = 64;
  const std::uint64_t total =
      count_allocation_points(esc, esc, multi_iteration_config()) +
      count_allocation_points(merge, merge, merge_heavy_config()) +
      count_allocation_points(lr_a, lr_b, lr_cfg);
  EXPECT_GE(total, 100u);
}

// ---------------------------------------------------------------------------
// Sustained-pressure policies through the full pipeline.
// ---------------------------------------------------------------------------

TEST(FaultPipeline, PeriodicDenialsKeepOutputBitIdentical) {
  const auto a = testutil::quantize(
      gen_powerlaw<double>(200, 200, 6.0, 1.5, 120, 131));
  Config cfg = merge_heavy_config();
  const Csr<double> clean = multiply(a, a, cfg);

  DenyEveryKthPolicy deny(7);
  cfg.alloc_policy = &deny;
  SpgemmStats stats;
  const Csr<double> injected = multiply(a, a, cfg, &stats);
  EXPECT_TRUE(injected.equals_exact(clean));
  EXPECT_GT(stats.restarts, 1);
  EXPECT_GE(stats.pool_denials, static_cast<std::size_t>(deny.denials()));
  EXPECT_GT(deny.denials(), 0u);
}

TEST(FaultPipeline, SeededPressureKeepsOutputBitIdentical) {
  const auto a = testutil::quantize(
      gen_uniform_random<double>(150, 150, 8.0, 2.0, 99));
  Config cfg = multi_iteration_config();
  const Csr<double> clean = multiply(a, a, cfg);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SeededProbabilisticPolicy policy(seed, 0.1);
    cfg.alloc_policy = &policy;
    SpgemmStats stats;
    const Csr<double> injected = multiply(a, a, cfg, &stats);
    EXPECT_TRUE(injected.equals_exact(clean)) << "seed " << seed;
    EXPECT_GT(stats.restarts, 0) << "seed " << seed;
  }
}

TEST(FaultPipeline, ByteBudgetScheduleKeepsOutputBitIdentical) {
  const auto a = testutil::quantize(
      gen_uniform_random<double>(300, 300, 6.0, 2.0, 101));
  Config cfg;
  cfg.nnz_per_block = 32;
  const Csr<double> clean = multiply(a, a, cfg);

  // Budgets far below the real usage: every stage boundary forces a restart
  // round, like a pool that genuinely resized through these capacities.
  ByteBudgetPolicy budget({1 << 10, 8 << 10, 64 << 10});
  cfg.alloc_policy = &budget;
  SpgemmStats stats;
  const Csr<double> injected = multiply(a, a, cfg, &stats);
  EXPECT_TRUE(injected.equals_exact(clean));
  EXPECT_GT(stats.restarts, 0);
  EXPECT_EQ(budget.stages_passed(), 3u);
}

TEST(FaultPipeline, DenialsSurfaceOnStatsWithoutTracing) {
  const auto a = testutil::quantize(
      gen_uniform_random<double>(150, 150, 8.0, 2.0, 99));
  Config cfg = multi_iteration_config();
  DenyNthPolicy deny(10);
  cfg.alloc_policy = &deny;
  SpgemmStats stats;
  (void)multiply(a, a, cfg, &stats);
  EXPECT_GE(stats.pool_denials, 1u);
  EXPECT_GE(stats.restarts, 1);
  const auto snapshot = to_metrics_snapshot(stats);
  EXPECT_EQ(snapshot.counters.pool_denials, stats.pool_denials);
  EXPECT_EQ(snapshot.counters.restarts,
            static_cast<std::uint64_t>(stats.restarts));
}

}  // namespace
}  // namespace acs::fault
