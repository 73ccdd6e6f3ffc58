#include "core/work_distribution.hpp"

#include <algorithm>
#include <cassert>

namespace acs {

WorkDistribution::WorkDistribution(std::span<const offset_t> counts,
                                   sim::MetricCounters& m) {
  state_.resize(counts.size() + 1);
  state_[0] = 0;
  for (std::size_t i = 0; i < counts.size(); ++i)
    state_[i + 1] = state_[i] + counts[i];
  m.scan_elements += counts.size();
  m.scratch_ops += counts.size();
}

void WorkDistribution::receive(offset_t consume, std::vector<Item>& out,
                               sim::MetricCounters& m) {
  assert(consume <= size());
  // Two-pointer sweep replacing the GPU's marker-scatter + max-scan
  // (Algorithm 2 lines 16-29): output slot c belongs to the A entry whose
  // state range contains c; the B offset counts down from the remaining end.
  std::size_t a = 0;
  for (offset_t c = 0; c < consume; ++c) {
    while (state_[a + 1] <= c) ++a;
    out.push_back({static_cast<index_t>(a),
                   static_cast<index_t>(state_[a + 1] - c - 1)});
  }
  charge_assignment(consume, m);
  reduce(consume, m);
}

void WorkDistribution::fast_forward(offset_t count, sim::MetricCounters& m) {
  assert(count <= size());
  reduce(count, m);
}

void WorkDistribution::reduce(offset_t consume, sim::MetricCounters& m) {
  for (auto& s : state_) s = std::max<offset_t>(0, s - consume);
  m.scratch_ops += state_.size();
  consumed_ += consume;
}

}  // namespace acs
