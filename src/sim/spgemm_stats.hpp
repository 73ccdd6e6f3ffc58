#pragma once
/// \file spgemm_stats.hpp
/// Execution statistics shared by every SpGEMM implementation in the
/// repository. This is the instrumentation the paper's evaluation tables are
/// built from: simulated time / GFLOPS (Figs. 5–6, 9–12), per-stage times
/// (Fig. 7), memory consumption and restarts (Table 3, Fig. 8) and
/// multiprocessor load (Table 3).

#include <string>
#include <utility>
#include <vector>

#include "matrix/types.hpp"
#include "sim/metrics.hpp"
#include "trace/metrics.hpp"

namespace acs {

struct SpgemmStats {
  /// Aggregate work counters over all simulated kernels.
  sim::MetricCounters metrics;
  /// Total simulated execution time (all kernel launches + restarts).
  double sim_time_s = 0.0;
  /// Host wall-clock time of the simulation itself (not a paper metric, but
  /// useful for harness sanity checks). For AC-SpGEMM it also covers the
  /// pipeline's teardown, which frees the chunks and the per-row segment
  /// lists.
  double wall_time_s = 0.0;
  /// Lowest multiprocessor load over the substantive kernels (Table 3 "mpL").
  double multiprocessor_load = 1.0;
  /// Host round trips due to chunk-pool exhaustion (Table 3 "R").
  int restarts = 0;
  /// Blocks denied a chunk-pool allocation, summed over restart rounds —
  /// real exhaustion and injected faults (core/chunk.hpp AllocationPolicy)
  /// alike. Nonzero pool_denials with zero restarts is impossible.
  std::size_t pool_denials = 0;
  /// Helper data structures in bytes (Table 3 "helper").
  std::size_t helper_bytes = 0;
  /// Allocated chunk-pool / temporary-buffer bytes (Table 3 "chunk").
  std::size_t pool_bytes = 0;
  /// Actually used pool bytes (Table 3 "used").
  std::size_t pool_used_bytes = 0;
  /// Initial pool sizing this run started from — the reused plan's learned
  /// size or the cold estimator's output (`estimate_chunk_pool_bytes`).
  /// Compare against pool_used_bytes to observe estimate error per job.
  std::size_t pool_estimate_bytes = 0;
  /// Intermediate products of the multiplication (2 FLOPs each).
  offset_t intermediate_products = 0;
  /// Simulated time per pipeline stage, in execution order (Fig. 7).
  std::vector<std::pair<std::string, double>> stage_times_s;

  // --- AC-SpGEMM pipeline observability (zero for the baselines). --------
  /// Chunks written to the pool (including merge outputs).
  std::size_t chunks_created = 0;
  /// Total local ESC iterations over all blocks.
  std::size_t esc_iterations = 0;
  /// Long rows of B turned into pointer chunks (Section 3.4).
  std::size_t long_row_chunks = 0;
  /// Rows shared between chunks that required merging.
  std::size_t merged_rows = 0;
  /// Global load balancing was satisfied from a reused SpgemmPlan instead of
  /// a fresh Algorithm 1 pass (see core/plan.hpp).
  bool glb_reused = false;

  /// GFLOPS at the simulated time, using the 2-flops-per-product convention.
  [[nodiscard]] double gflops() const {
    if (sim_time_s <= 0.0) return 0.0;
    return 2.0 * static_cast<double>(intermediate_products) / sim_time_s / 1e9;
  }

  /// Simulated time attributed to `stage` (0 if the stage never ran).
  [[nodiscard]] double stage_time(const std::string& stage) const {
    double t = 0.0;
    for (const auto& [name, s] : stage_times_s)
      if (name == stage) t += s;
    return t;
  }
};

/// The run's counter record as far as `s` holds it: restarts, denials, ESC
/// iterations, chunks, long-row chunks, the three pool gauges and the
/// allocated bytes. The pipeline adds its trace-only tallies and block
/// times on top before it hands the record to a trace session.
[[nodiscard]] trace::CountersSnapshot to_counters_snapshot(
    const SpgemmStats& s);

/// One run's stats as an aggregatable metrics snapshot (jobs = 1): the
/// canonical stage times from `stage_times_s` and the counter record of
/// `to_counters_snapshot`.
[[nodiscard]] trace::MetricsSnapshot to_metrics_snapshot(const SpgemmStats& s);

}  // namespace acs
