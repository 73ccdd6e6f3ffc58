#include "trace/metrics.hpp"

#include <algorithm>

namespace acs::trace {

int stage_index(std::string_view name) {
  for (std::size_t i = 0; i < kNumStages; ++i)
    if (name == kStageNames[i]) return static_cast<int>(i);
  return -1;
}

MetricsSnapshot& MetricsSnapshot::operator+=(const MetricsSnapshot& o) {
  jobs += o.jobs;
  wall_time_s += o.wall_time_s;
  sim_time_s += o.sim_time_s;
  for (std::size_t i = 0; i < kNumStages; ++i)
    stage_sim_time_s[i] += o.stage_sim_time_s[i];
  restarts += o.restarts;
  pool_denials += o.pool_denials;
  esc_iterations += o.esc_iterations;
  chunks_created += o.chunks_created;
  long_row_chunks += o.long_row_chunks;
  merged_rows += o.merged_rows;
  pool_bytes = std::max(pool_bytes, o.pool_bytes);
  pool_used_bytes = std::max(pool_used_bytes, o.pool_used_bytes);
  pool_estimate_bytes = std::max(pool_estimate_bytes, o.pool_estimate_bytes);
  counters += o.counters;
  return *this;
}

}  // namespace acs::trace
