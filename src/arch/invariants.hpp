#pragma once
/// \file invariants.hpp
/// Compile-time proofs of the arch layer's contracts, in the style of
/// core/invariants.hpp and tune/invariants.hpp. Included from arch.cpp so
/// every build re-checks them. The per-arch *tuner feasibility* proofs
/// (which block shapes each device accepts) live in tune/invariants.hpp,
/// which sits above this layer; here we pin what the tags themselves
/// promise:
///  1. SimTitanXp's constants reproduce sim::DeviceConfig's defaults
///     exactly, so selecting the default arch is bit- and cost-model-
///     compatible with the pre-arch pipeline.
///  2. NativeCpu mirrors SimTitanXp's block geometry — same scratchpad
///     budget, same threads per block — which is what makes the native
///     backend's outputs bit-identical to the simulated ones (identical
///     ESC working-set bounds ⇒ identical iteration structure).
///  3. SimBigDevice really is bigger where it matters (the widened
///     feasible region tune/invariants.hpp proves depends on it).

#include "arch/arch.hpp"
#include "sim/device_config.hpp"

namespace acs::arch::invariants {

// 1. The default arch IS the default device.
static_assert(device_config<SimTitanXp>() == sim::DeviceConfig{});

// 2. NativeCpu executes under SimTitanXp's geometry. The scratchpad bound
// drives fits_device (core/config.hpp), which both Pipeline::validate and
// the tuner apply; the thread count drives temp_capacity — equality of
// these is the bit-identity precondition.
static_assert(NativeCpu::kScratchpadBytes == SimTitanXp::kScratchpadBytes);
static_assert(NativeCpu::kThreadsPerBlock == SimTitanXp::kThreadsPerBlock);
static_assert(device_config<NativeCpu>() == device_config<SimTitanXp>());
static_assert(NativeCpu::kExec == ExecKind::kNative);
static_assert(SimTitanXp::kExec == ExecKind::kSimulated);

// 3. SimBigDevice widens the scratchpad (2×) and the SM count; block
// geometry stays the paper's 256 threads so tuned overlays transfer.
static_assert(SimBigDevice::kScratchpadBytes ==
              2 * SimTitanXp::kScratchpadBytes);
static_assert(SimBigDevice::kNumSms > SimTitanXp::kNumSms);
static_assert(SimBigDevice::kThreadsPerBlock == SimTitanXp::kThreadsPerBlock);

// Ids are distinct and stable (they key plan-cache fingerprints — see
// runtime/fingerprint.hpp).
static_assert(static_cast<unsigned>(SimTitanXp::kId) == 0);
static_assert(static_cast<unsigned>(SimBigDevice::kId) == 1);
static_assert(static_cast<unsigned>(NativeCpu::kId) == 2);

// arch_info round-trips the tag constants through dispatch_arch.
static_assert(arch_info(ArchId::kSimBigDevice).device.scratchpad_bytes ==
              SimBigDevice::kScratchpadBytes);
static_assert(arch_info(ArchId::kNativeCpu).exec == ExecKind::kNative);

}  // namespace acs::arch::invariants
