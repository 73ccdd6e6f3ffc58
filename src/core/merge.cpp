#include "core/merge.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "sim/block_primitives.hpp"
#include "trace/trace.hpp"

namespace acs {
namespace {

/// Gathered element of a merge buffer: local row (index into batch.rows),
/// column and value, in global chunk order per row.
template <class T>
struct Gathered {
  std::vector<index_t> lrow;
  std::vector<index_t> col;
  std::vector<T> val;
  index_t min_col = 0;
  index_t max_col = 0;
};

/// Load all segments of the batch. Pointer chunks materialize `factor × row
/// of B` on the fly (coalesced read of the long row); regular segments read
/// the chunk payload (coalesced, one transaction overhead per segment).
template <class T>
void gather(const MergeBatch& batch, const SegmentTable& segments,
            std::span<const Chunk<T>> chunks, const Csr<T>& b,
            sim::MetricCounters& m, Gathered<T>& g) {
  g.lrow.clear();
  g.col.clear();
  g.val.clear();
  g.min_col = b.cols;
  g.max_col = 0;
  for (std::size_t r = 0; r < batch.rows.size(); ++r) {
    for (const RowSegment& seg : segments.of(batch.rows[r])) {
      const Chunk<T>& chunk = chunks[seg.chunk];
      if (chunk.is_long_row) {
        const index_t start = b.row_ptr[usize(chunk.b_row)];
        for (index_t i = 0; i < chunk.long_len; ++i) {
          g.lrow.push_back(static_cast<index_t>(r));
          g.col.push_back(b.col_idx[static_cast<std::size_t>(start + i)]);
          g.val.push_back(chunk.factor *
                          b.values[static_cast<std::size_t>(start + i)]);
        }
        m.global_bytes_coalesced += static_cast<std::uint64_t>(chunk.long_len) *
                                    (sizeof(index_t) + sizeof(T));
        m.flops += 2 * static_cast<std::uint64_t>(chunk.long_len);
      } else {
        for (index_t i = 0; i < seg.length; ++i) {
          g.lrow.push_back(static_cast<index_t>(r));
          g.col.push_back(
              chunk.cols[static_cast<std::size_t>(seg.begin + i)]);
          g.val.push_back(
              chunk.vals[static_cast<std::size_t>(seg.begin + i)]);
        }
        m.global_bytes_coalesced += static_cast<std::uint64_t>(seg.length) *
                                    (sizeof(index_t) + sizeof(T));
        m.global_bytes_scattered += 32;  // segment-start transaction
      }
    }
  }
  for (index_t c : g.col) {
    g.min_col = std::min(g.min_col, c);
    g.max_col = std::max(g.max_col, c);
  }
  if (g.col.empty()) g.min_col = g.max_col = 0;
}

/// Per-window cut-discovery cost of the three merge algorithms.
template <class T>
void charge_cut_discovery(MergeKind kind, const MergeBatch& batch,
                          const SegmentTable& segments,
                          std::span<const Chunk<T>> chunks,
                          const Config& cfg, sim::MetricCounters& m) {
  const auto threads = static_cast<std::uint64_t>(cfg.threads);
  switch (kind) {
    case MergeKind::Multi:
      // One-shot: the MCC stage already paid for the batch assignment.
      break;
    case MergeKind::Path: {
      // Samples placed uniformly over every chunk's entries, sorted across
      // the block carrying the sample number, then a custom max-scan finds
      // the matching cut through each chunk (Section 3.3).
      m.global_bytes_scattered += threads * sizeof(index_t);
      const int bits = sim::bits_for(threads);
      m.sort_pass_elements +=
          threads * static_cast<std::uint64_t>(sim::radix_passes(32 + bits));
      m.scan_elements += threads;
      break;
    }
    case MergeKind::Search: {
      // Binary search of each sampled column id in every chunk.
      std::uint64_t probes = 0;
      for (const index_t row : batch.rows)
        for (const RowSegment& seg : segments.of(row)) {
          const auto len = std::max<index_t>(
              chunks[seg.chunk].is_long_row ? chunks[seg.chunk].long_len
                                            : seg.length,
              2);
          probes += static_cast<std::uint64_t>(
              std::ceil(std::log2(static_cast<double>(len))));
        }
      m.compute_ops += threads * probes;
      // Probe reads are scattered but hit a small hot set (the sampled
      // column ids of the row's chunks), so most land in L2.
      m.global_bytes_scattered += threads * probes * sizeof(index_t) / 16;
      m.scan_elements += threads;
      break;
    }
  }
}

/// Reusable merge-block buffers: one instance per scheduler thread, alive
/// across blocks (and multiplications) on either backend, so the steady
/// state allocates nothing.
template <class T>
struct MergeWorkspace {
  Gathered<T> g;
  std::vector<std::uint64_t> keys;
  std::vector<std::pair<std::size_t, std::size_t>> windows;  // [begin, end)
  sim::RadixSortScratch<std::uint64_t, T> sort;
  CompactionOutput<T> compaction;

  static MergeWorkspace& instance() {
    thread_local MergeWorkspace ws;
    return ws;
  }
};

}  // namespace

/// One merge block, one kernel for both backends: gather, sort with
/// sim::radix_sort, then compact each window with compact_sorted_into. The
/// GPU's work is charged in closed form: the block radix sort's
/// n × passes over the codec's width, and one block scan per window.
template <class T>
MergeOutcome<T> run_merge_block(const MergeBatch& batch,
                                const SegmentTable& segments,
                                std::span<const Chunk<T>> chunks,
                                const Csr<T>& b, const Config& cfg,
                                ChunkPool& pool, MergeKind kind,
                                std::size_t windows_done_start,
                                std::uint32_t order_block) {
  MergeOutcome<T> out;
  out.windows_done = windows_done_start;
  sim::MetricCounters& m = out.metrics;

  MergeWorkspace<T>& ws = MergeWorkspace<T>::instance();

  Gathered<T>& g = ws.g;
  gather(batch, segments, chunks, b, m, g);
  const std::size_t n = g.col.size();
  if (n == 0) return out;

  const index_t max_lrow = static_cast<index_t>(batch.rows.size()) - 1;
  const KeyCodec codec =
      KeyCodec::make(0, max_lrow, g.min_col, g.max_col, cfg.dynamic_bits,
                     max_lrow, b.cols - 1);

  // Sort the gathered buffer by (local row, column). Stable, so elements of
  // one (row, column) stay in global chunk order — deterministic sums.
  std::vector<std::uint64_t>& keys = ws.keys;
  keys.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = codec.encode(g.lrow[i], g.col[i]);
  sim::radix_sort(std::span(keys), std::span(g.val), codec.total_bits(),
                  ws.sort);
  m.sort_pass_elements +=
      n * static_cast<std::uint64_t>(sim::radix_passes(codec.total_bits()));

  // Window the sorted buffer: never split a key group across windows, and
  // keep each window within the block's scratchpad capacity.
  const auto capacity = static_cast<std::size_t>(cfg.temp_capacity());
  std::vector<std::pair<std::size_t, std::size_t>>& windows = ws.windows;
  windows.clear();
  std::size_t wbegin = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t group_end = i + 1;
    while (group_end < n && keys[group_end] == keys[i]) ++group_end;
    if (group_end - wbegin > capacity && wbegin < i) {
      windows.emplace_back(wbegin, i);
      wbegin = i;
    }
    i = group_end;
  }
  windows.emplace_back(wbegin, n);

  // Block-level window spans only in detail mode (see DESIGN.md §7).
  trace::TraceSession* detail_trace =
      cfg.trace && cfg.trace->detail() ? cfg.trace : nullptr;

  // Multi Merge is one-shot by construction (the batch was packed to fit);
  // Path/Search merge iterate windows, each with its cut-discovery cost.
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto [begin, end] = windows[w];
    if (w < windows_done_start) continue;  // already written before restart
    ACS_TRACE_SCOPE(detail_trace, "merge.window");
    if (kind != MergeKind::Multi || w > 0)
      charge_cut_discovery(kind, batch, segments, chunks, cfg, m);

    const ChunkOrder order{order_block, static_cast<std::uint32_t>(w)};
    const std::size_t wn = end - begin;
    // Degenerate oversized key group (more duplicates of one (row, col)
    // than fit in a block): sequential accumulation in chained passes,
    // into a one-entry chunk.
    const bool degenerate = wn > compaction_detail::kCounterMask;
    m.scan_elements += wn;
    if (degenerate) {
      // The wn-1 additions are useful floating-point work just like the
      // compaction path's combines — uncharged they vanish from the Fig. 7
      // breakdown on duplicate-heavy inputs.
      m.flops += static_cast<std::uint64_t>(wn - 1);
    } else {
      compact_sorted_into(
          std::span<const std::uint64_t>(keys).subspan(begin, wn),
          std::span<const T>(g.val).subspan(begin, wn), codec, ws.compaction);
      m.scratch_ops += wn;
    }
    const CompactionOutput<T>& c = ws.compaction;
    const std::size_t rows = degenerate ? 1 : c.rows.size();
    const std::size_t entries = degenerate ? 1 : c.keys.size();

    const std::size_t bytes = Chunk<T>::charged_bytes(rows, entries);
    if (!pool.try_allocate(bytes)) {
      out.needs_restart = true;
      return out;
    }
    charge_chunk_write(m, bytes, rows);
    m.scratch_ops += 2 * entries;
    const ChunkSlot<T> slot = pool.place<T>(rows, entries);
    slot.row_offsets[0] = 0;
    if (degenerate) {
      T sum = g.val[begin];
      for (std::size_t j = begin + 1; j < end; ++j) sum += g.val[j];
      slot.rows[0] =
          batch.rows[static_cast<std::size_t>(codec.row_of(keys[begin]))];
      slot.row_offsets[1] = 1;
      slot.cols[0] = codec.col_of(keys[begin]);
      slot.vals[0] = sum;
    } else {
      index_t written = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        slot.rows[r] = batch.rows[static_cast<std::size_t>(c.rows[r].first)];
        written += c.rows[r].second;
        slot.row_offsets[r + 1] = written;
      }
      for (std::size_t e = 0; e < entries; ++e)
        slot.cols[e] = codec.col_of(c.keys[e]);
      std::copy_n(c.vals.begin(), entries, slot.vals.begin());
    }
    out.chunks.push_back(slot.chunk(order));
    out.windows_done = w + 1;
  }
  return out;
}

template MergeOutcome<float> run_merge_block(
    const MergeBatch&, const SegmentTable&, std::span<const Chunk<float>>,
    const Csr<float>&, const Config&, ChunkPool&, MergeKind, std::size_t,
    std::uint32_t);
template MergeOutcome<double> run_merge_block(
    const MergeBatch&, const SegmentTable&, std::span<const Chunk<double>>,
    const Csr<double>&, const Config&, ChunkPool&, MergeKind, std::size_t,
    std::uint32_t);

}  // namespace acs
