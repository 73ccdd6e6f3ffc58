#include "sim/spgemm_stats.hpp"

namespace acs {

trace::CountersSnapshot to_counters_snapshot(const SpgemmStats& s) {
  trace::CountersSnapshot r;
  r.pool_alloc_bytes = s.pool_used_bytes;
  r.pool_denials = s.pool_denials;
  r.pool_capacity_bytes = s.pool_bytes;
  r.pool_used_bytes = s.pool_used_bytes;
  r.pool_estimate_bytes = s.pool_estimate_bytes;
  r.restarts = static_cast<std::uint64_t>(s.restarts < 0 ? 0 : s.restarts);
  r.esc_iterations = s.esc_iterations;
  r.chunks_written = s.chunks_created;
  r.long_row_chunks = s.long_row_chunks;
  return r;
}

trace::MetricsSnapshot to_metrics_snapshot(const SpgemmStats& s) {
  trace::MetricsSnapshot m;
  m.jobs = 1;
  m.wall_time_s = s.wall_time_s;
  m.sim_time_s = s.sim_time_s;
  for (const auto& [name, t] : s.stage_times_s) {
    const int i = trace::stage_index(name);
    if (i >= 0) m.stage_sim_time_s[static_cast<std::size_t>(i)] += t;
  }
  m.counters = to_counters_snapshot(s);
  return m;
}

}  // namespace acs
