#pragma once
/// \file sweep.hpp
/// Injection-point enumerator and sweep (ISSUE 3 tentpole). The sweep makes
/// every chunk-pool allocation site a deliberately reachable restart point:
///
///   1. Clean run — a `CountingPolicy` counts the pool's `try_allocate`
///      attempts and captures the reference output (optionally checked
///      against the SPA Gustavson baseline, the repository's ground truth).
///   2. For each attempt index i (stride/cap configurable), re-run the
///      multiplication under `DenyNthPolicy(i)`: allocation i fails exactly
///      as if the pool were exhausted, the owning block restarts, and the
///      output must come out bit-identical to the clean run.
///
/// A sweep therefore proves the §3.5 restart protocol — ESC relaunches
/// from the `BlockState` resume point (the failed iteration's start and
/// carry, so replay cuts iterations where the clean run did),
/// `windows_done` resumption in Path/Search merge, and idempotent long-row
/// chunk creation — at *every* interleaving the allocation sequence
/// admits, not just the ones an undersized pool happens to produce.
/// tests/test_fault.cpp runs it across generators, value types and
/// scheduler thread counts; the ASan/TSan CI presets run it again so
/// replay bugs also surface as sanitizer failures.

#include <cstdint>

#include "core/acspgemm.hpp"
#include "matrix/csr.hpp"

namespace acs::fault {

struct SweepOptions {
  /// Inject at every `stride`-th attempt index (1 = all of them).
  std::uint64_t stride = 1;
  /// Cap on injected runs, 0 = unlimited. Points are taken from the front;
  /// combine with `stride` to sample a long allocation sequence.
  std::uint64_t max_points = 0;
  /// Check the clean run against `spa_multiply` before sweeping.
  bool differential_reference = true;
};

struct SweepReport {
  /// try_allocate attempts of the clean run — the injection-point space.
  std::uint64_t allocation_points = 0;
  /// Injected runs actually executed (after stride / max_points).
  std::uint64_t injected_runs = 0;
  /// Injected runs that recorded at least one restart. The denied
  /// allocation always exists (index < allocation_points), so this must
  /// equal `injected_runs`.
  std::uint64_t runs_with_restart = 0;
  /// Restarts and block-level pool denials summed over injected runs.
  std::uint64_t total_restarts = 0;
  std::uint64_t total_denials = 0;
  /// Injected runs whose output differed from the clean run (must be 0).
  std::uint64_t mismatches = 0;
  /// Attempt index of the first mismatching run (valid when mismatches > 0).
  std::uint64_t first_mismatch_point = 0;
  /// Clean output agreed with the SPA reference (true when the check was
  /// disabled via `SweepOptions::differential_reference`).
  bool reference_agrees = true;

  /// The property the tentpole demands: every injected run restarted and
  /// reproduced the clean output bit-for-bit.
  [[nodiscard]] bool ok() const {
    return mismatches == 0 && reference_agrees &&
           runs_with_restart == injected_runs;
  }
};

/// Count the chunk-pool allocation attempts of one clean run — the number
/// of distinct injection points a full sweep would probe.
template <class T>
[[nodiscard]] std::uint64_t count_allocation_points(const Csr<T>& a,
                                                    const Csr<T>& b,
                                                    Config cfg);

/// Run the full enumerate-then-deny sweep described above. `cfg` is taken
/// by value: the sweep installs its own `alloc_policy` per run (any policy
/// the caller set is ignored); `cfg.trace` is honored and sees every run.
template <class T>
[[nodiscard]] SweepReport sweep_injection_points(const Csr<T>& a,
                                                 const Csr<T>& b, Config cfg,
                                                 const SweepOptions& options = {});

extern template std::uint64_t count_allocation_points(const Csr<float>&,
                                                      const Csr<float>&,
                                                      Config);
extern template std::uint64_t count_allocation_points(const Csr<double>&,
                                                      const Csr<double>&,
                                                      Config);
extern template SweepReport sweep_injection_points(const Csr<float>&,
                                                   const Csr<float>&, Config,
                                                   const SweepOptions&);
extern template SweepReport sweep_injection_points(const Csr<double>&,
                                                   const Csr<double>&, Config,
                                                   const SweepOptions&);

}  // namespace acs::fault
