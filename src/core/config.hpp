#pragma once
/// \file config.hpp
/// Tuning parameters of AC-SpGEMM. Defaults follow the paper's evaluation
/// setup: blocks of 256 threads handling 256 non-zeros of A, 8 sorted
/// elements per thread, up to 4 retained elements per thread between local
/// ESC iterations, a 1.2× chunk-pool estimate with a 100 MB lower bound.

#include <cstddef>
#include <cstdint>

#include "arch/arch.hpp"
#include "matrix/types.hpp"

namespace acs::trace {
class TraceSession;
}

namespace acs {

class AllocationPolicy;  // core/chunk.hpp

/// Initial chunk-pool sizing strategy (see `estimate_chunk_pool_bytes`).
enum class PoolSizing {
  /// The paper's closed-form uniform-collision guess
  /// S ≈ nA·b·(1-(1-p_b)^a)/p_b, scaled by `pool_estimate_factor`.
  kClosedForm = 0,
  /// Sampled per-row estimator (src/estimate): a strided B-row-length
  /// sample sized in bytes of actual chunk layout, with a quantile-based
  /// safety margin. Ignores `pool_estimate_factor`; still respects
  /// `pool_override_bytes` and `pool_lower_bound_bytes`. Pure function of
  /// the operands' structure, so serve decision streams stay replayable.
  kSampled,
};

struct Config {
  /// Threads per simulated block.
  int threads = 256;
  /// Non-zeros of A assigned to each block by global load balancing
  /// (paper: "block size of 256/512 non-zeros").
  int nnz_per_block = 256;
  /// Temporary products sorted per thread per ESC iteration (paper: 8).
  int elements_per_thread = 8;
  /// Compacted elements retained per thread between iterations (paper: up
  /// to 4). Set to 0 to ablate multi-iteration ESC: every iteration then
  /// flushes to global memory, the prior-work behaviour of Dalton et al.
  int retain_per_thread = 4;
  /// Dynamic sort-bit reduction (row dictionary + min/max column tracking,
  /// Section 3.2.3). Off = static key width, the ablation baseline.
  bool dynamic_bits = true;
  /// Special handling of long rows of B (Section 3.4).
  bool long_row_handling = true;
  /// Rows of B at least this long become pointer chunks; 0 = auto
  /// (= temp_capacity()).
  index_t long_row_threshold = 0;
  /// Path Merge handles rows with up to this many chunks; beyond that,
  /// Search Merge takes over (Section 3.3).
  int path_merge_max_chunks = 8;
  /// How the initial chunk pool is sized when no plan is available:
  /// closed-form guess (default, the paper's setup) or the sampled
  /// estimator of src/estimate.
  PoolSizing pool_sizing = PoolSizing::kClosedForm;
  /// Chunk-pool estimate multiplier (paper: 1.2 for metadata/divergence).
  /// Closed-form sizing only; the sampled estimator's margin is its
  /// B-row-length quantile (`estimate::PoolSizingParams`).
  double pool_estimate_factor = 1.2;
  /// Lower bound on the initial chunk pool (paper: 100 MB).
  std::size_t pool_lower_bound_bytes = std::size_t{100} << 20;
  /// Exact pool size override; 0 = use the estimate. Used by the restart
  /// experiments of Section 4.3.
  std::size_t pool_override_bytes = 0;
  /// Fault-injection hook installed on the run's chunk pool (non-owning;
  /// must outlive the multiplication and be safe to call from
  /// `scheduler_threads` concurrent blocks). Null (default) = no injection.
  /// Denied allocations are indistinguishable from real exhaustion: the
  /// affected block restarts and the output stays bit-identical (the
  /// injection sweep in tests/test_fault.cpp proves it per allocation site).
  AllocationPolicy* alloc_policy = nullptr;
  /// Host threads executing simulated blocks, asked of the scheduler by each
  /// dispatch; they also fault in C's pages and copy its rows when the
  /// output is large (DESIGN.md §13). 1 (default) is fully deterministic
  /// including restart counts; >1 keeps results bit-identical but the
  /// restart count may vary with interleaving; 0 = one per hardware thread.
  unsigned scheduler_threads = 1;
  /// Check the CSR invariants of both operands before multiplying (costs a
  /// full pass; off by default like the GPU original).
  bool validate_inputs = false;
  /// Observability sink (non-owning; must outlive the multiplication). When
  /// set, the pipeline records stage spans into the session as it runs and
  /// adds the run's counters once it finishes; null (default) disables
  /// tracing — the hooks then cost one pointer test and results/stats are
  /// byte-for-byte unaffected (test_trace.cpp proves it). The session may be
  /// shared by concurrent multiplications.
  trace::TraceSession* trace = nullptr;
  /// Backend the multiply runs on: its row of the backend table
  /// (`arch::arch_info`, docs/BACKENDS.md) gives the device whose
  /// scratchpad and block geometry bound the ESC working set, and whether
  /// that device's cost model prices the blocks' counters. Under a native
  /// backend `sim_time_s` and every stage time read 0; outputs and
  /// `SpgemmStats::metrics` are bit-identical to the simulated default's.
  /// An engine on a non-default arch sets this on every job it runs
  /// (`runtime::apply_arch`).
  arch::ArchId arch = arch::ArchId::kSimTitanXp;

  /// Temporary products held per block per ESC iteration.
  [[nodiscard]] constexpr int temp_capacity() const {
    return threads * elements_per_thread;
  }
  /// Maximum compacted elements carried to the next iteration.
  [[nodiscard]] constexpr int retain_capacity() const {
    return threads * retain_per_thread;
  }
  [[nodiscard]] constexpr index_t effective_long_row_threshold() const {
    return long_row_threshold > 0 ? long_row_threshold
                                  : static_cast<index_t>(temp_capacity());
  }
};

/// True when `cfg` passes the device-feasibility constraints that
/// Pipeline::validate enforces: positive block geometry, retain <
/// elements_per_thread, 15-bit compaction counters, and the ESC working
/// set (keys + values + work-distribution offsets + scan states) fitting
/// the scratchpad of `cfg.arch`'s device. `value_bytes` = sizeof of the
/// value type. The one statement of the paper's claim that all temporary
/// data fits in on-chip memory: the pipeline checks it on every multiply,
/// the tuner prunes its grid with it, and, being constexpr,
/// tune/invariants.hpp certifies the default grids against it at compile
/// time — e.g. that double-width values with nnz_per_block=1024 exceed
/// 48 KiB.
[[nodiscard]] constexpr bool fits_device(const Config& cfg,
                                         std::size_t value_bytes) {
  if (cfg.threads <= 0 || cfg.nnz_per_block <= 0 ||
      cfg.elements_per_thread <= 0)
    return false;
  if (cfg.retain_per_thread < 0 ||
      cfg.retain_per_thread >= cfg.elements_per_thread)
    return false;
  if (cfg.temp_capacity() > 32767) return false;  // 15-bit compaction counters
  // Scratchpad layout of one ESC block: each array padded to its alignment.
  const auto cap = static_cast<std::size_t>(cfg.temp_capacity());
  std::size_t used = 0;
  const auto alloc = [&](std::size_t count, std::size_t size,
                         std::size_t align) {
    used = (used + align - 1) / align * align + count * size;
  };
  alloc(cap, sizeof(std::uint64_t), alignof(std::uint64_t));  // sort keys
  alloc(cap, value_bytes, value_bytes);                       // sort values
  alloc(static_cast<std::size_t>(cfg.nnz_per_block) + 1, sizeof(offset_t),
        alignof(offset_t));                                   // WD offsets
  alloc(cap, sizeof(std::uint32_t), alignof(std::uint32_t));  // scan states
  return used <= static_cast<std::size_t>(
                     arch::arch_info(cfg.arch).device.scratchpad_bytes);
}

}  // namespace acs
