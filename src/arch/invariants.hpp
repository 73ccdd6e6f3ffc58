#pragma once
/// \file invariants.hpp
/// Compile-time proofs of the backend table's contracts, in the style of
/// core/invariants.hpp and tune/invariants.hpp. Included from
/// core/acspgemm.cpp so every build re-checks them. The per-arch *tuner
/// feasibility* proofs (which block shapes each device accepts) live in
/// tune/invariants.hpp, which sits above this layer; here we pin what the
/// rows themselves promise:
///  0. The table has one row per `ArchId` enumerator, in order, so
///     `arch_info` is a plain index.
///  1. SimTitanXp's device is sim::DeviceConfig's defaults exactly, so
///     selecting the default arch is bit- and cost-model-compatible with
///     the pre-arch pipeline.
///  2. NativeCpu runs under SimTitanXp's device — same scratchpad budget,
///     same block geometry — which is what makes the native backend's
///     outputs bit-identical to the simulated ones (identical ESC
///     working-set bounds ⇒ identical iteration structure).
///  3. SimBigDevice really is bigger where it matters (the widened
///     feasible region tune/invariants.hpp proves depends on it).

#include <cstddef>

#include "arch/arch.hpp"
#include "sim/device_config.hpp"

namespace acs::arch::invariants {

/// True for the values `ArchId` names. The switch lists every enumerator,
/// so -Wswitch (an error under ACS_WERROR) flags one added without a case.
constexpr bool is_enumerator(ArchId id) {
  switch (id) {
    case ArchId::kSimTitanXp:
    case ArchId::kSimBigDevice:
    case ArchId::kNativeCpu:
      return true;
  }
  return false;
}

/// Row i holds enumerator i, and the value one past the last row is not an
/// enumerator (they are numbered from 0 without gaps).
constexpr bool one_row_per_enumerator() {
  for (std::size_t i = 0; i < kArchTable.size(); ++i)
    if (static_cast<std::size_t>(kArchTable[i].id) != i ||
        !is_enumerator(kArchTable[i].id))
      return false;
  return !is_enumerator(static_cast<ArchId>(kArchTable.size()));
}

// 0. One row per enumerator, in order. Ids are stable: they key plan-cache
// fingerprints (runtime/fingerprint.hpp).
static_assert(one_row_per_enumerator());
static_assert(static_cast<unsigned>(ArchId::kSimTitanXp) == 0);
static_assert(static_cast<unsigned>(ArchId::kSimBigDevice) == 1);
static_assert(static_cast<unsigned>(ArchId::kNativeCpu) == 2);

// 1. The default arch IS the default device.
static_assert(arch_info(ArchId::kSimTitanXp).device == sim::DeviceConfig{});
static_assert(arch_info(ArchId::kSimTitanXp).exec == ExecKind::kSimulated);

// 2. NativeCpu executes under SimTitanXp's device. The scratchpad bound
// drives fits_device (core/config.hpp), which both Pipeline::validate and
// the tuner apply — equality is the bit-identity precondition.
static_assert(arch_info(ArchId::kNativeCpu).device ==
              arch_info(ArchId::kSimTitanXp).device);
static_assert(arch_info(ArchId::kNativeCpu).exec == ExecKind::kNative);

// 3. SimBigDevice widens the scratchpad (2×) and the SM count; block
// geometry stays the paper's 256 threads so tuned overlays transfer.
constexpr const sim::DeviceConfig& kTitan =
    arch_info(ArchId::kSimTitanXp).device;
constexpr const sim::DeviceConfig& kBig =
    arch_info(ArchId::kSimBigDevice).device;
static_assert(kBig.scratchpad_bytes == 2 * kTitan.scratchpad_bytes);
static_assert(kBig.num_sms > kTitan.num_sms);
static_assert(kBig.threads_per_block == kTitan.threads_per_block);

}  // namespace acs::arch::invariants
