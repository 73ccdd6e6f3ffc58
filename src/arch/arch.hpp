#pragma once
/// \file arch.hpp
/// The backend table: one `constexpr` row per compiled-in backend, indexed
/// by `ArchId`. A row names the backend, says whether the cost model prices
/// its blocks (`ExecKind`), and holds the `sim::DeviceConfig` the pipeline
/// runs against and the scheduler threads the engine gives it. Code that
/// needs a backend's constants reads its row through `arch_info`;
/// arch/invariants.hpp proves what the rows promise at compile time.
///
/// docs/BACKENDS.md is the porting guide: a new backend is a new row.

#include <array>
#include <cstddef>

#include "arch/arch_id.hpp"
#include "sim/device_config.hpp"

namespace acs::arch {

/// One backend.
struct ArchInfo {
  ArchId id = ArchId::kSimTitanXp;
  /// Stable lowercase name, as docs/BACKENDS.md spells it.
  const char* name = "";
  ExecKind exec = ExecKind::kSimulated;
  /// Block geometry and scratchpad for every backend; the cost model's
  /// constants for a simulated one.
  sim::DeviceConfig device{};
  /// Host threads driving a native backend's blocks when an engine applies
  /// the arch with `EngineConfig::native_threads` = 0
  /// (`runtime::apply_arch`); 0 = one per hardware thread. A simulated job
  /// keeps its own `Config::scheduler_threads`.
  unsigned default_scheduler_threads = 1;
};

/// The paper's test platform, the NVIDIA Titan Xp: `sim::DeviceConfig`'s
/// defaults.
inline constexpr sim::DeviceConfig kTitanXpDevice{};

/// A Volta-class device: twice the per-block scratchpad and many more SMs.
/// nnz_per_block = 1024 with double values needs 49160 B of scratchpad,
/// 8 bytes over the Titan Xp's 48 KiB and well inside 96 KiB, so the tuner
/// grid of this device reaches block shapes the Titan Xp must prune.
inline constexpr sim::DeviceConfig kBigDevice = [] {
  sim::DeviceConfig d{};
  d.num_sms = 80;
  d.clock_ghz = 1.38;
  d.mem_bandwidth_gb = 900.0;
  d.scratchpad_bytes = 96 * 1024;
  return d;
}();

/// Every compiled-in backend; row i describes `ArchId` i.
inline constexpr std::array<ArchInfo, 3> kArchTable{{
    // The default, bit- and cost-model-compatible with the pre-arch
    // pipeline.
    {ArchId::kSimTitanXp, "sim-titan-xp", ExecKind::kSimulated,
     kTitanXpDevice, 1},
    {ArchId::kSimBigDevice, "sim-big-device", ExecKind::kSimulated,
     kBigDevice, 1},
    // The Titan Xp's device value itself: its block geometry bounds the
    // ESC working set, so sharing it keeps outputs bit-identical to the
    // simulated default.
    {ArchId::kNativeCpu, "native-cpu", ExecKind::kNative, kTitanXpDevice, 0},
}};

/// The row of `id`. Unknown ids fold to SimTitanXp's row, the
/// bit-compatible default.
[[nodiscard]] constexpr const ArchInfo& arch_info(ArchId id) {
  const auto row = static_cast<std::size_t>(id);
  return kArchTable[row < kArchTable.size() ? row : 0];
}

}  // namespace acs::arch
