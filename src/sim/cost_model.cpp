#include "sim/cost_model.hpp"

#include <algorithm>
#include <cstdint>

namespace acs::sim {

double block_time_s(const MetricCounters& m, const DeviceConfig& dev) {
  const double bw = dev.mem_bandwidth_gb * 1e9;
  // Memory time: the device bandwidth is shared by all SMs; a single block
  // sees roughly 1/num_sms of it when the device is saturated, which is the
  // regime all our kernels run in.
  const double block_bw = bw / static_cast<double>(dev.num_sms);
  const double mem_s =
      (static_cast<double>(m.global_bytes_coalesced) +
       static_cast<double>(m.global_bytes_scattered) / dev.scatter_efficiency) /
      block_bw;

  // Weights are instructions per counted unit: a radix-sort pass costs ~4
  // instructions per element (digit extract, rank scan, scatter), a scan
  // element ~2 (load, combine, store), a hash probe ~1.5 (hash, compare,
  // CAS). These ratios drive the paper's ESC-vs-hashing crossover: at high
  // compaction factors the per-product sort cost exceeds the probe cost.
  const double ops = static_cast<double>(m.scratch_ops) * 0.25 +
                     static_cast<double>(m.sort_pass_elements) * 4.0 +
                     static_cast<double>(m.scan_elements) * 2.0 +
                     static_cast<double>(m.hash_probes) * 1.5 +
                     static_cast<double>(m.compute_ops) * 1.0 +
                     static_cast<double>(m.flops) * 0.25;
  const double compute_s =
      ops / (dev.ops_per_clock_per_sm * dev.clock_ghz * 1e9);
  const double atomic_s = static_cast<double>(m.atomic_ops) * dev.atomic_ns * 1e-9;

  // Every block pays a small scheduling/drain overhead; kernels with many
  // thin blocks (warp-per-row strategies on sparse inputs) feel it most.
  return std::max(mem_s, compute_s) + atomic_s + dev.block_overhead_us * 1e-6;
}

KernelTiming schedule_blocks(const std::vector<double>& block_times_s,
                             const DeviceConfig& dev) {
  KernelTiming out;
  out.time_s = dev.kernel_launch_us * 1e-6;
  if (block_times_s.empty()) return out;

  // Greedy list scheduling in block-id order onto SM slots: each next block
  // goes to the earliest-free slot, mirroring the hardware block dispatcher.
  const int slots = std::max(1, dev.num_sms * dev.blocks_per_sm);
  std::vector<double> slot_busy(static_cast<std::size_t>(slots), 0.0);
  for (double t : block_times_s) {
    auto it = std::min_element(slot_busy.begin(), slot_busy.end());
    *it += t;
  }

  // Resident blocks on one SM overlap (that is what multiple slots model),
  // so the makespan is the busiest slot. The load metric compares total
  // work per SM (each SM aggregates its resident slots).
  const double max_slot = *std::max_element(slot_busy.begin(), slot_busy.end());
  out.time_s += max_slot;

  std::vector<double> sm_busy(static_cast<std::size_t>(dev.num_sms), 0.0);
  for (int s = 0; s < slots; ++s)
    sm_busy[static_cast<std::size_t>(s % dev.num_sms)] +=
        slot_busy[static_cast<std::size_t>(s)];
  const double max_sm = *std::max_element(sm_busy.begin(), sm_busy.end());
  const double min_sm = *std::min_element(sm_busy.begin(), sm_busy.end());
  out.multiprocessor_load = max_sm > 0.0 ? min_sm / max_sm : 1.0;
  return out;
}

KernelTiming schedule_blocks(const std::vector<MetricCounters>& blocks,
                             const DeviceConfig& dev) {
  std::vector<double> times;
  times.reserve(blocks.size());
  for (const auto& b : blocks) times.push_back(block_time_s(b, dev));
  return schedule_blocks(times, dev);
}

double uniform_kernel_time_s(const MetricCounters& total, std::size_t n,
                             const DeviceConfig& dev) {
  const double launch_s = dev.kernel_launch_us * 1e-6;
  if (n == 0) return launch_s;
  const auto div = static_cast<std::uint64_t>(n);
  const auto ceil_share = [div](std::uint64_t v) {
    return v / div + (v % div != 0 ? 1 : 0);
  };
  MetricCounters share;
  share.global_bytes_coalesced = ceil_share(total.global_bytes_coalesced);
  share.global_bytes_scattered = ceil_share(total.global_bytes_scattered);
  share.scratch_ops = ceil_share(total.scratch_ops);
  share.sort_pass_elements = ceil_share(total.sort_pass_elements);
  share.scan_elements = ceil_share(total.scan_elements);
  share.hash_probes = ceil_share(total.hash_probes);
  share.atomic_ops = ceil_share(total.atomic_ops);
  share.flops = ceil_share(total.flops);
  share.compute_ops = ceil_share(total.compute_ops);
  // The list schedule puts block j on the least-loaded slot, which holds at
  // most floor(j / slots) earlier blocks; no block outlasts `share`, so no
  // slot ends above ceil(n / slots) of them.
  const auto slots =
      static_cast<std::size_t>(std::max(1, dev.num_sms * dev.blocks_per_sm));
  const auto waves = (n + slots - 1) / slots;
  return launch_s + static_cast<double>(waves) * block_time_s(share, dev);
}

}  // namespace acs::sim
