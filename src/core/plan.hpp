#pragma once
/// \file plan.hpp
/// Reusable execution plan for AC-SpGEMM. The first two things every
/// `multiply` does — global load balancing over A's non-zeros (Algorithm 1)
/// and the simplistic chunk-pool estimate (Section 4) — depend only on the
/// operands' sparsity structure, not on their values. A plan captures both,
/// plus the restart feedback of past runs, so repeated multiplications of
/// identically structured matrices (AMG Galerkin chains, iterative graph
/// kernels) skip the setup work and start from a pool size that is known to
/// suffice. `src/runtime` keys plans by a structure fingerprint and caches
/// them across jobs; `multiply_planned` is the core entry point that
/// consumes and refreshes one.

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "matrix/types.hpp"

namespace acs {

/// Per-multiply parameters chosen by the auto-tuner (src/tune). A field at
/// its sentinel value leaves the base `Config`'s setting untouched, so a
/// default-constructed TunedParams is a no-op. Parameters are picked from
/// *structural* features only (never from values), so one overlay applies
/// to every job sharing the structure fingerprint.
struct TunedParams {
  /// Non-zeros of A per block; 0 = keep `Config::nnz_per_block`.
  int nnz_per_block = 0;
  /// Retained elements per thread between local ESC iterations; -1 = keep
  /// `Config::retain_per_thread`.
  int retain_per_thread = -1;
  /// Long-row cutoff for B; -1 = keep `Config::long_row_threshold`
  /// (0 is a meaningful tuned value: "auto", i.e. temp_capacity()).
  index_t long_row_threshold = -1;
  /// Path-vs-Search merge cutoff; 0 = keep `Config::path_merge_max_chunks`.
  int path_merge_max_chunks = 0;
  /// False = no tuning decision recorded; `apply` is then a no-op.
  bool valid = false;

  friend bool operator==(const TunedParams&, const TunedParams&) = default;

  /// Overlay the tuned values onto `cfg` (sentinel fields leave it alone).
  void apply(Config& cfg) const {
    if (!valid) return;
    if (nnz_per_block > 0) cfg.nnz_per_block = nnz_per_block;
    if (retain_per_thread >= 0) cfg.retain_per_thread = retain_per_thread;
    if (long_row_threshold >= 0) cfg.long_row_threshold = long_row_threshold;
    if (path_merge_max_chunks > 0)
      cfg.path_merge_max_chunks = path_merge_max_chunks;
  }
};

struct SpgemmPlan {
  /// blockRowStarts of Algorithm 1, one entry per block. Empty means the
  /// plan carries no load-balancing table yet and the pipeline builds one.
  std::vector<index_t> block_row_starts;
  /// Decomposition the table was built for; a plan only applies to a run
  /// with the same `Config::nnz_per_block`.
  int nnz_per_block = 0;
  /// Initial chunk-pool capacity to use; 0 = run the paper's estimate.
  /// After a run this holds the final capacity including restart growth, so
  /// replaying the plan needs no restarts.
  std::size_t pool_bytes = 0;

  // --- Feedback from the most recent planned run. ------------------------
  /// Pool bytes actually used (the high-water mark future sizing rests on).
  std::size_t observed_pool_used = 0;
  /// Restarts the last run incurred (0 once the plan has converged).
  int observed_restarts = 0;
  /// Completed runs recorded into this plan.
  std::size_t runs = 0;

  /// True if the stored load-balancing table is the one Algorithm 1 builds
  /// for an A with row pointer `row_ptr` under `cfg`: one entry per block,
  /// and each block b's start row s holds A's non-zero b·nnz_per_block
  /// (row_ptr[s] <= b·nnz_per_block < row_ptr[s+1]). O(blocks). Plans are
  /// keyed by a hash of the row pointer, which is not collision resistant,
  /// so a table learned on another structure must fail here rather than
  /// hand its blocks the wrong rows.
  [[nodiscard]] bool has_load_balance(
      const Config& cfg, const std::vector<index_t>& row_ptr) const {
    if (row_ptr.empty() || block_row_starts.empty() || nnz_per_block <= 0)
      return false;
    if (nnz_per_block != cfg.nnz_per_block ||
        block_row_starts.size() != static_cast<std::size_t>(divup<offset_t>(
                                       row_ptr.back(), nnz_per_block)))
      return false;
    const std::size_t rows = row_ptr.size() - 1;
    for (std::size_t b = 0; b < block_row_starts.size(); ++b) {
      const index_t s = block_row_starts[b];
      const auto first = static_cast<offset_t>(b) * nnz_per_block;
      if (s < 0 || static_cast<std::size_t>(s) >= rows ||
          row_ptr[usize(s)] > first || first >= row_ptr[usize(s) + 1])
        return false;
    }
    return true;
  }
};

}  // namespace acs
