#include "trace/metrics.hpp"

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
  counters += o.counters;
  return *this;
}

}  // namespace acs::trace
