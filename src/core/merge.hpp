#pragma once
/// \file merge.hpp
/// Chunk merging (Section 3.3): rows shared between chunks are combined into
/// new chunks. Three algorithms with different cut-discovery costs but
/// identical (deterministic) results:
///  * Multi Merge — many small 2-chunk rows batched into one block;
///  * Path Merge — up to a predefined chunk count; sample-sort based cuts;
///  * Search Merge — arbitrary chunk counts; binary-search sampling over the
///    column-id range.
/// Merging always combines segments in global chunk order, so floating-point
/// accumulation remains a left-to-right sum in consumption order — the
/// bit-stability guarantee extends across the merge.

#include <cstdint>
#include <span>
#include <vector>

#include "core/chunk.hpp"
#include "core/config.hpp"
#include "matrix/csr.hpp"
#include "sim/metrics.hpp"

namespace acs {

enum class MergeKind { Multi, Path, Search };

/// One merge work unit: a set of rows, each with two or more segments in
/// the ESC segment table — one row for Path/Search, possibly many for
/// Multi Merge. A slice of the stage's row list, so no batch allocates.
struct MergeBatch {
  std::span<const index_t> rows;
};

template <class T>
struct MergeOutcome {
  /// New chunks, one per window; each covers one or more complete rows
  /// (Multi Merge) or one column-range window of a single row (Path/Search).
  std::vector<Chunk<T>> chunks;
  sim::MetricCounters metrics;
  bool needs_restart = false;
  /// Windows successfully written (resume point after a restart).
  std::size_t windows_done = 0;
};

/// Execute one merge block. Row r's segments are `segments.of(r)`, indexing
/// `chunks`. `windows_done_start` resumes a restarted task; windows before
/// it are skipped (their chunks already exist).
template <class T>
MergeOutcome<T> run_merge_block(const MergeBatch& batch,
                                const SegmentTable& segments,
                                std::span<const Chunk<T>> chunks,
                                const Csr<T>& b, const Config& cfg,
                                ChunkPool& pool, MergeKind kind,
                                std::size_t windows_done_start,
                                std::uint32_t order_block);

extern template MergeOutcome<float> run_merge_block(
    const MergeBatch&, const SegmentTable&, std::span<const Chunk<float>>,
    const Csr<float>&, const Config&, ChunkPool&, MergeKind, std::size_t,
    std::uint32_t);
extern template MergeOutcome<double> run_merge_block(
    const MergeBatch&, const SegmentTable&, std::span<const Chunk<double>>,
    const Csr<double>&, const Config&, ChunkPool&, MergeKind, std::size_t,
    std::uint32_t);

}  // namespace acs
