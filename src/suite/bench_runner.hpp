#pragma once
/// \file bench_runner.hpp
/// Shared driver for the table/figure benchmark binaries: builds a suite
/// entry's operands (A·A for square matrices, A·Aᵀ with a precomputed
/// transpose otherwise, exactly as in the paper's Section 4), runs one
/// algorithm, and returns the measurements all tables are built from.

#include <string>
#include <utility>
#include <vector>

#include "baselines/algorithm.hpp"
#include "runtime/engine.hpp"
#include "suite/suite.hpp"

namespace acs {

struct BenchMeasurement {
  std::string matrix;
  std::string algorithm;
  std::string precision;  // "float" / "double"
  offset_t temp_products = 0;
  offset_t nnz_a = 0;
  offset_t nnz_c = 0;
  double avg_row_len_a = 0.0;
  double gflops = 0.0;
  double sim_time_s = 0.0;
  SpgemmStats stats;
};

/// Run `algo` on `entry` with value type T.
template <class T>
BenchMeasurement run_benchmark(const SuiteEntry& entry,
                               const SpgemmAlgorithm<T>& algo);

/// Run the whole algorithm list on one entry.
template <class T>
std::vector<BenchMeasurement> run_benchmarks(
    const SuiteEntry& entry,
    const std::vector<std::unique_ptr<SpgemmAlgorithm<T>>>& algos);

/// Harmonic mean (the paper's Table 1 aggregation of per-matrix speedups).
double harmonic_mean(const std::vector<double>& v);

/// "bench_out/<name>": benchmark and example artifacts (JSON reports,
/// tune-cache binaries, exported matrices) all land in one gitignored
/// directory next to the working directory instead of littering the repo
/// root. Creates the directory on first use; returns the relative path.
[[nodiscard]] std::string bench_out_path(const std::string& name);

/// Wall-clock throughput measurement of a batch of multiplications — the
/// unit the runtime Engine benchmarks are built from. Wall time is host
/// time (the quantity batching actually improves), sim_time_s sums the
/// per-job simulated times.
struct BatchBenchResult {
  std::string label;
  std::size_t jobs = 0;
  double wall_s = 0.0;
  double jobs_per_s = 0.0;
  double sim_time_s = 0.0;            ///< summed over jobs
  std::size_t restarts = 0;           ///< summed over jobs
  double plan_hit_rate = 0.0;         ///< engine batches only
  std::size_t pool_reused_bytes = 0;  ///< engine batches only
  /// Chunk-pool region bytes newly allocated: the engine arena's fresh
  /// regions, or every region the naive calls allocated.
  std::size_t pool_fresh_bytes = 0;
  /// Aggregated per-job metrics (stage sim-time breakdown and the counter
  /// record; its trace-only tallies when the engine ran with
  /// collect_job_traces).
  trace::MetricsSnapshot metrics;
};

/// Run every (A,B) pair through the engine and measure throughput. Plan
/// cache and pool arena state carry over between calls, so calling this
/// twice with the same pairs measures cold and warm behaviour.
template <class T>
BatchBenchResult run_engine_batch(
    runtime::Engine<T>& engine,
    const std::vector<std::pair<Csr<T>, Csr<T>>>& pairs, const Config& cfg,
    const std::string& label);

/// Baseline: the same pairs through a sequential `acs::multiply` loop, each
/// call doing its own setup and pool allocation.
template <class T>
BatchBenchResult run_naive_batch(
    const std::vector<std::pair<Csr<T>, Csr<T>>>& pairs, const Config& cfg,
    const std::string& label);

extern template BatchBenchResult run_engine_batch(
    runtime::Engine<float>&,
    const std::vector<std::pair<Csr<float>, Csr<float>>>&, const Config&,
    const std::string&);
extern template BatchBenchResult run_engine_batch(
    runtime::Engine<double>&,
    const std::vector<std::pair<Csr<double>, Csr<double>>>&, const Config&,
    const std::string&);
extern template BatchBenchResult run_naive_batch(
    const std::vector<std::pair<Csr<float>, Csr<float>>>&, const Config&,
    const std::string&);
extern template BatchBenchResult run_naive_batch(
    const std::vector<std::pair<Csr<double>, Csr<double>>>&, const Config&,
    const std::string&);
extern template BenchMeasurement run_benchmark(const SuiteEntry&,
                                               const SpgemmAlgorithm<float>&);
extern template BenchMeasurement run_benchmark(const SuiteEntry&,
                                               const SpgemmAlgorithm<double>&);
extern template std::vector<BenchMeasurement> run_benchmarks(
    const SuiteEntry&,
    const std::vector<std::unique_ptr<SpgemmAlgorithm<float>>>&);
extern template std::vector<BenchMeasurement> run_benchmarks(
    const SuiteEntry&,
    const std::vector<std::unique_ptr<SpgemmAlgorithm<double>>>&);

}  // namespace acs
