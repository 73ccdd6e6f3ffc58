#pragma once
/// \file device_config.hpp
/// Parameters of the simulated GPU. Defaults approximate the NVIDIA Titan Xp
/// (compute capability 6.1) used in the paper's evaluation: 30 SMs at
/// 1.58 GHz, 547 GB/s DRAM bandwidth, 96 KiB scratchpad per SM (48 KiB
/// usable per block at the occupancy the paper's kernels run at).

namespace acs::sim {

struct DeviceConfig {
  int num_sms = 30;
  /// Resident blocks per SM; used by the scheduler to overlap block latency.
  int blocks_per_sm = 2;
  double clock_ghz = 1.58;
  /// Peak DRAM bandwidth for fully coalesced access.
  double mem_bandwidth_gb = 547.0;
  /// Effective bandwidth fraction for scattered (uncoalesced) accesses; a
  /// 4-byte access pulls a 32-byte sector, i.e. 1/8 efficiency.
  double scatter_efficiency = 0.125;
  /// Usable scratchpad (shared memory) per thread block in bytes.
  int scratchpad_bytes = 48 * 1024;
  int threads_per_block = 256;
  /// Fixed cost per kernel launch / host round trip, in microseconds. The
  /// paper's restart mechanism pays one of these per restart.
  double kernel_launch_us = 8.0;
  /// Scheduling/drain overhead per thread block, in microseconds.
  double block_overhead_us = 0.3;
  /// Simple throughput model: simulated "compute operations" retired per SM
  /// per clock. Block-cooperative work (scans, radix-sort passes, hash
  /// probes) is barrier- and bank-conflict-limited, retiring far fewer
  /// logical operations per clock than the raw ALU count suggests.
  double ops_per_clock_per_sm = 8.0;
  /// Extra latency of one global atomic, in nanoseconds.
  double atomic_ns = 2.0;

  /// Field-wise equality; constexpr so the arch layer can prove at compile
  /// time which backends share a device (arch/invariants.hpp).
  friend constexpr bool operator==(const DeviceConfig&,
                                   const DeviceConfig&) = default;
};

}  // namespace acs::sim
