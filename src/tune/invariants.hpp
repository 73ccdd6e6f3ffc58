#pragma once
/// \file invariants.hpp
/// Compile-time proofs of the tuner's feasibility contract (DESIGN.md §10):
/// `fits_device` (core/config.hpp) is constexpr, so every tuple of the
/// default candidate grids can be certified against the default 48 KiB
/// scratchpad here, for both value widths, instead of trusting the runtime
/// pruning alone.
/// Included from tune/tuner.cpp so the proofs are checked in every build.

#include <cstddef>

#include "arch/arch_id.hpp"
#include "core/config.hpp"
#include "tune/tuner.hpp"

namespace acs::tune::invariants {

/// The default grid tuple (nnz_per_block, retain) overlaid on the default
/// block shape (256 threads × 8 elements).
constexpr Config grid_config(int nnz_per_block, int retain) {
  Config cfg{};
  cfg.nnz_per_block = nnz_per_block;
  cfg.retain_per_thread = retain;
  return cfg;
}

/// Every default-grid tuple with nnz_per_block below `npb_limit` fits the
/// default device for values of `value_bytes`.
constexpr bool default_grid_fits(std::size_t value_bytes, int npb_limit) {
  for (int npb : kDefaultNnzPerBlockGrid) {
    if (npb >= npb_limit) continue;
    for (int retain : kDefaultRetainGrid)
      if (!fits_device(grid_config(npb, retain), value_bytes)) return false;
  }
  return true;
}

// The base configuration itself is feasible for both widths — the tuner's
// "never worse than the default" guarantee depends on the identity overlay
// surviving the feasibility filter.
static_assert(fits_device(Config{}, sizeof(float)));
static_assert(fits_device(Config{}, sizeof(double)));

// Float: the whole default grid fits the 48 KiB scratchpad.
static_assert(default_grid_fits(sizeof(float), /*npb_limit=*/2048));

// Double: every tuple except nnz_per_block=1024 fits...
static_assert(default_grid_fits(sizeof(double), /*npb_limit=*/1024));
// ...and 1024 exactly does not: 2048 keys (16 KiB) + 2048 double values
// (16 KiB) + 1025 offset_t work-distribution offsets (8200 B) + 2048 scan
// states (8 KiB) = 49160 B > 49152 B. The tuner must prune it, which
// test_tune.cpp observes at run time.
static_assert(!fits_device(grid_config(1024, 4), sizeof(double)));

// The retained-element grid never reaches elements_per_thread — retain ==
// ept would make every ESC iteration a no-op that forwards its whole
// buffer, so fits_device rejects it and the grid must stay below.
constexpr bool retain_grid_below_ept() {
  for (int retain : kDefaultRetainGrid)
    if (retain >= Config{}.elements_per_thread) return false;
  return true;
}
static_assert(retain_grid_below_ept());

// Compaction feasibility: the filter bounds temp_capacity() by the 15-bit
// scan counters, so any accepted shape can never trip compact_sorted's
// overflow guard.
static_assert(!fits_device(
    []() constexpr {
      Config cfg{};
      cfg.threads = 4096;
      cfg.elements_per_thread = 8;  // temp_capacity 32768 > 32767
      return cfg;
    }(),
    sizeof(float)));

// ---- Per-arch feasibility (docs/BACKENDS.md) -------------------------------
// Each backend's row swaps the device under the same filter; these proofs
// pin what each row's scratchpad admits so a device change that silently
// shrinks or widens a tuning grid fails the build, not a benchmark.

/// The default grid tuple on backend `id`.
constexpr Config arch_grid_config(arch::ArchId id, int nnz_per_block,
                                  int retain) {
  Config cfg = grid_config(nnz_per_block, retain);
  cfg.arch = id;
  return cfg;
}

constexpr auto kBig = arch::ArchId::kSimBigDevice;
constexpr auto kTitan = arch::ArchId::kSimTitanXp;
constexpr auto kNative = arch::ArchId::kNativeCpu;

/// Every (nnz_per_block, retain) tuple of the SimBigDevice grid fits its
/// 96 KiB scratchpad for values of `value_bytes`.
constexpr bool big_grid_fits(std::size_t value_bytes) {
  for (int npb : kBigDeviceNnzPerBlockGrid)
    for (int retain : kDefaultRetainGrid)
      if (!fits_device(arch_grid_config(kBig, npb, retain), value_bytes))
        return false;
  return true;
}
static_assert(big_grid_fits(sizeof(float)));
static_assert(big_grid_fits(sizeof(double)));

// The tuples the big grid buys are exactly the ones the default device
// prunes: nnz_per_block=1024 double (49160 B) and 2048 double (57352 B) fit
// 96 KiB but not 48 KiB. NativeCpu's row holds SimTitanXp's device
// (arch/invariants.hpp), so it rejects them identically — the native
// backend changes execution, never plan feasibility.
static_assert(fits_device(arch_grid_config(kBig, 1024, 4), sizeof(double)));
static_assert(fits_device(arch_grid_config(kBig, 2048, 4), sizeof(double)));
static_assert(!fits_device(arch_grid_config(kTitan, 1024, 4),
                           sizeof(double)));
static_assert(!fits_device(arch_grid_config(kTitan, 2048, 4),
                           sizeof(double)));
static_assert(!fits_device(arch_grid_config(kNative, 1024, 4),
                           sizeof(double)));
static_assert(!fits_device(arch_grid_config(kNative, 2048, 4),
                           sizeof(double)));

}  // namespace acs::tune::invariants
