#pragma once
/// \file metrics.hpp
/// Aggregatable per-job / per-engine metrics built from `SpgemmStats`
/// (`to_metrics_snapshot`). A `MetricsSnapshot` is the flat, copyable
/// summary the runtime Engine rolls up across workers and the benches print
/// their breakdowns from: per-stage simulated time keyed by the canonical
/// stage order (Fig. 7's GLB/ESC/MCC/MM/PM/SM/CC) and the runs' counter
/// record — the same `CountersSnapshot` a trace session adds up.

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
  /// The jobs' counter records, added up. Built from `SpgemmStats`, so
  /// the counts SpgemmStats keeps are live with tracing off; the trace-only
  /// tallies (ESC blocks and histogram, merge cases and windows, block
  /// times) are filled when a job ran with its own trace session.
  CountersSnapshot counters;

  MetricsSnapshot& operator+=(const MetricsSnapshot& o);
};

}  // namespace acs::trace
