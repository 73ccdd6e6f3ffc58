#pragma once
/// \file arch_id.hpp
/// Runtime identifiers of the compiled-in backends. This header is the
/// bottom of the arch layer: plain enums with no dependencies, so headers
/// that only name a backend (structure fingerprints, tuner grids,
/// `EngineConfig`) need not see the backend table (arch.hpp) or the
/// simulated device description.
///
/// The numeric values are part of structure fingerprints
/// (runtime/fingerprint.hpp) and index the backend table — never renumber
/// an existing entry, only append.

#include <cstdint>

namespace acs::arch {

/// One compiled-in backend. Each id has one row in arch.hpp's table, at
/// index == value.
enum class ArchId : std::uint32_t {
  /// The paper's evaluation device, simulated (Titan Xp: 30 SMs, 48 KiB
  /// scratchpad per block). Bit-compatible with the pre-arch pipeline and
  /// the default everywhere.
  kSimTitanXp = 0,
  /// A simulated device with twice the scratchpad (96 KiB) and more SMs;
  /// block shapes the Titan Xp must prune (e.g. nnz_per_block = 1024 with
  /// double values) are feasible here, so the tuner's grid widens.
  kSimBigDevice = 1,
  /// Native CPU execution: the same block kernels run on the host thread
  /// pool for wall-clock throughput, with the simulated cost model
  /// switched off. Its device is SimTitanXp's, so outputs are
  /// bit-identical to the simulated backend.
  kNativeCpu = 2,
};

/// How a backend executes blocks (a column of the backend table).
enum class ExecKind : std::uint32_t {
  /// Price every kernel's block counters with the simulated device cost
  /// model (sim::schedule_blocks); stats report simulated kernel times.
  kSimulated = 0,
  /// Skip the device cost model; stats report zero simulated time. The
  /// blocks run the same kernels and charge the same counters.
  kNative = 1,
};

}  // namespace acs::arch
