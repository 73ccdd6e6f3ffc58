#pragma once
/// \file esc_block.hpp
/// One thread block's execution of the adaptive chunk-based ESC stage
/// (Section 3.2): fetch the block's slice of A, create pointer chunks for
/// long rows, then run work-distribution-driven iterations of local
/// expand–sort–compress, carrying the last (possibly incomplete) row between
/// iterations and writing completed rows out as chunks. Supports the restart
/// protocol: on chunk-pool exhaustion the block stops, and a relaunch
/// resumes at the start of the iteration whose chunk write failed.

#include <cstdint>
#include <span>
#include <vector>

#include "core/chunk.hpp"
#include "core/config.hpp"
#include "matrix/csr.hpp"
#include "sim/metrics.hpp"

namespace acs {

/// Persistent per-block restart state ("restart information" of
/// Section 3.2.4). The resume point is recorded when a chunk write fails:
/// the failing iteration's starting work-distribution position and the
/// carried row it started with. A relaunch restores both, so it replays
/// exactly the iterations an uninterrupted run would — the same cuts, hence
/// the same partial chunks of rows that outgrow the retain capacity.
template <class T>
struct BlockState {
  /// Work-distribution elements consumed before the resume iteration.
  offset_t resume_consumed = 0;
  /// Carried partial row at the resume point: local row id (-1 = none) and
  /// its compacted columns and values.
  index_t carry_row = -1;
  std::vector<index_t> carry_cols;
  std::vector<T> carry_vals;
  /// Long-row pointer chunks already created (idempotent replay).
  index_t long_rows_done = 0;
  /// Per-block running chunk number (global chunk ordering).
  std::uint32_t chunk_counter = 0;
  bool finished = false;
};

template <class T>
struct EscBlockResult {
  /// Chunks successfully written this launch, in creation order.
  std::vector<Chunk<T>> chunks;
  sim::MetricCounters metrics;
  bool needs_restart = false;
  int iterations = 0;
};

/// Execute (or resume) block `block_id` of the AC-ESC stage.
/// `block_row_starts` is the global-load-balancing output (Algorithm 1).
template <class T>
EscBlockResult<T> run_esc_block(const Csr<T>& a, const Csr<T>& b,
                                std::span<const index_t> block_row_starts,
                                std::size_t block_id, const Config& cfg,
                                ChunkPool& pool, BlockState<T>& state);

extern template EscBlockResult<float> run_esc_block(
    const Csr<float>&, const Csr<float>&, std::span<const index_t>,
    std::size_t, const Config&, ChunkPool&, BlockState<float>&);
extern template EscBlockResult<double> run_esc_block(
    const Csr<double>&, const Csr<double>&, std::span<const index_t>,
    std::size_t, const Config&, ChunkPool&, BlockState<double>&);

}  // namespace acs
