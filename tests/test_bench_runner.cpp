#include "suite/bench_runner.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/chunk.hpp"
#include "matrix/generators.hpp"
#include "suite/registry.hpp"

namespace acs {
namespace {

const SuiteEntry& square_entry() { return showcase_suite()[5]; }  // asia_osm

TEST(BenchRunner, FillsAllMeasurementFields) {
  AcSpgemmAlgorithm<double> ac;
  const auto m = run_benchmark<double>(square_entry(), ac);
  EXPECT_EQ(m.matrix, square_entry().name);
  EXPECT_EQ(m.algorithm, "AC-SpGEMM");
  EXPECT_EQ(m.precision, "double");
  EXPECT_GT(m.nnz_a, 0);
  EXPECT_GT(m.nnz_c, 0);
  EXPECT_GT(m.temp_products, 0);
  EXPECT_GT(m.gflops, 0.0);
  EXPECT_GT(m.sim_time_s, 0.0);
  EXPECT_GT(m.avg_row_len_a, 0.0);
}

TEST(BenchRunner, FloatPrecisionLabel) {
  AcSpgemmAlgorithm<float> ac;
  const auto m = run_benchmark<float>(square_entry(), ac);
  EXPECT_EQ(m.precision, "float");
}

TEST(BenchRunner, NonSquareUsesTranspose) {
  const SuiteEntry* rect = nullptr;
  for (const auto& e : showcase_suite())
    if (!e.square) rect = &e;
  ASSERT_NE(rect, nullptr);
  AcSpgemmAlgorithm<double> ac;
  const auto m = run_benchmark<double>(*rect, ac);
  EXPECT_GT(m.nnz_c, 0);  // A·Aᵀ is square and non-empty
}

TEST(BenchRunner, RunsWholeAlgorithmList) {
  const auto algos = make_paper_algorithms<double>();
  const auto results = run_benchmarks<double>(square_entry(), algos);
  ASSERT_EQ(results.size(), algos.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].algorithm, algos[i]->name());
    EXPECT_EQ(results[i].nnz_c, results[0].nnz_c) << results[i].algorithm;
  }
}

TEST(BenchRunner, NaiveAndEngineReportRegionBytes) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.0, 71);
  const std::vector<std::pair<Csr<double>, Csr<double>>> pairs(3, {a, a});
  Config cfg;
  cfg.pool_lower_bound_bytes = 64 << 10;  // charges far less than a region
  runtime::EngineConfig ec;
  ec.workers = 1;
  runtime::Engine<double> engine(ec);
  const auto cold = run_engine_batch(engine, pairs, cfg, "engine_cold");
  const auto naive = run_naive_batch(pairs, cfg, "naive");
  // Both rows count allocated chunk-pool regions, so they compare.
  EXPECT_GT(cold.pool_fresh_bytes, 0u);
  EXPECT_GT(naive.pool_fresh_bytes, 0u);
  EXPECT_EQ(cold.pool_fresh_bytes % kPoolRegionBytes, 0u);
  EXPECT_EQ(naive.pool_fresh_bytes % kPoolRegionBytes, 0u);
  // Each naive call allocates its own regions; the engine recycles them.
  EXPECT_GE(naive.pool_fresh_bytes, cold.pool_fresh_bytes);
}

TEST(BenchRunner, HarmonicMean) {
  EXPECT_DOUBLE_EQ(harmonic_mean({1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(harmonic_mean({2.0, 2.0}), 2.0);
  EXPECT_NEAR(harmonic_mean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
  EXPECT_EQ(harmonic_mean({}), 0.0);
}

}  // namespace
}  // namespace acs
