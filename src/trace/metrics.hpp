#pragma once
/// \file metrics.hpp
/// Aggregatable per-job / per-engine metrics built from `SpgemmStats`
/// (`to_metrics_snapshot`) plus, when tracing was live, the session's trace
/// counters. A `MetricsSnapshot` is the flat, copyable summary the
/// runtime Engine rolls up across workers and the benches print their
/// breakdowns from: per-stage simulated time keyed by the canonical stage
/// order (Fig. 7's GLB/ESC/MCC/MM/PM/SM/CC) and pipeline counters.

#include <array>
#include <cstdint>
#include <string_view>

#include "trace/trace.hpp"

namespace acs::trace {

/// Canonical pipeline stages in execution order — the names used by
/// `SpgemmStats::stage_times_s`, the stage spans and Fig. 7.
inline constexpr std::array<const char*, 7> kStageNames = {
    "GLB", "ESC", "MCC", "MM", "PM", "SM", "CC"};
inline constexpr std::size_t kNumStages = kStageNames.size();

/// Index of `name` in `kStageNames`, or -1 for non-stage span names.
[[nodiscard]] int stage_index(std::string_view name);

struct MetricsSnapshot {
  std::uint64_t jobs = 0;
  double wall_time_s = 0.0;  ///< summed host wall time
  double sim_time_s = 0.0;   ///< summed simulated time
  std::array<double, kNumStages> stage_sim_time_s{};
  std::uint64_t restarts = 0;
  /// Blocks denied a chunk-pool allocation (real exhaustion or injected
  /// faults), summed over jobs — filled from `SpgemmStats::pool_denials`,
  /// so it is live even when tracing is off.
  std::uint64_t pool_denials = 0;
  std::uint64_t esc_iterations = 0;
  std::uint64_t chunks_created = 0;
  std::uint64_t long_row_chunks = 0;
  std::uint64_t merged_rows = 0;
  std::uint64_t pool_bytes = 0;       ///< high-water chunk-pool capacity
  std::uint64_t pool_used_bytes = 0;  ///< high-water chunk-pool usage
  /// High-water initial pool sizing (plan or estimator output) — against
  /// pool_used_bytes this is the estimate error the trace exporters show.
  std::uint64_t pool_estimate_bytes = 0;
  /// Trace counters aggregated over jobs; all-zero when tracing was off.
  CountersSnapshot counters;

  MetricsSnapshot& operator+=(const MetricsSnapshot& o);

  /// Fraction of the summed simulated time spent in stage `i` (0 when no
  /// simulated time was recorded).
  [[nodiscard]] double stage_fraction(std::size_t i) const {
    return sim_time_s > 0.0 ? stage_sim_time_s[i] / sim_time_s : 0.0;
  }
};

}  // namespace acs::trace
