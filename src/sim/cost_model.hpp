#pragma once
/// \file cost_model.hpp
/// Analytic timing model turning MetricCounters into simulated kernel time.
///
/// A block's time is max(memory time, compute time) — GPUs overlap the two —
/// where memory time charges coalesced bytes at peak bandwidth and scattered
/// bytes at `scatter_efficiency` of peak, and compute time charges scans,
/// radix-sort passes, hash probes and generic ALU ops at
/// `ops_per_clock_per_sm`. Kernel time list-schedules the per-block times
/// onto `num_sms × blocks_per_sm` slots in block order (matching the
/// deterministic hardware dispatch the paper relies on) and adds the launch
/// overhead. The per-SM busy times also yield the paper's "multiprocessor
/// load" metric (Table 3, last column). Kernels whose blocks share one
/// aggregate evenly also have a closed form (`uniform_kernel_time_s`), which
/// the tuner's predictor prices with.

#include <cstddef>
#include <vector>

#include "sim/device_config.hpp"
#include "sim/metrics.hpp"

namespace acs::sim {

/// Simulated execution time of one block's worth of counters, in seconds.
double block_time_s(const MetricCounters& m, const DeviceConfig& dev);

struct KernelTiming {
  double time_s = 0.0;
  /// min(SM busy) / max(SM busy): 1.0 means perfectly balanced SMs.
  double multiprocessor_load = 1.0;
};

/// Schedule per-block times onto the device and return makespan + balance.
/// `blocks` may be empty (returns just the launch overhead).
KernelTiming schedule_blocks(const std::vector<double>& block_times_s,
                             const DeviceConfig& dev);

/// Convenience: schedule blocks given their metric sets.
KernelTiming schedule_blocks(const std::vector<MetricCounters>& blocks,
                             const DeviceConfig& dev);

/// Closed-form makespan of a uniform kernel: `n` blocks that split `total`
/// as `uniform_block_split(n, total)` does. Charges the launch plus
/// ceil(n / slots) waves of the block holding the ceiling share of every
/// field, in O(1) instead of the list schedule's O(n × slots). An upper
/// bound on `schedule_blocks(uniform_block_split(n, total), dev).time_s`,
/// exact when n ≤ num_sms × blocks_per_sm (then every block runs in one
/// wave and block 0 holds the ceiling share); `n` = 0 costs the launch.
double uniform_kernel_time_s(const MetricCounters& total, std::size_t n,
                             const DeviceConfig& dev);

}  // namespace acs::sim
