#include "core/esc_block.hpp"

#include <algorithm>
#include <cassert>

#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "core/work_distribution.hpp"
#include "sim/block_primitives.hpp"
#include "trace/trace.hpp"

namespace acs {
namespace {

/// Build a chunk from a prefix of the compaction output.
/// Rows [0, row_count) of `out` with their entries are materialized;
/// `a_row` maps local row ids to global rows.
template <class T>
Chunk<T> build_chunk(const CompactionOutput<T>& out, std::size_t row_count,
                     const KeyCodec& codec, std::span<const index_t> a_row,
                     ChunkOrder order) {
  Chunk<T> chunk;
  chunk.order = order;
  chunk.rows.reserve(row_count);
  chunk.row_offsets.reserve(row_count + 1);
  chunk.row_offsets.push_back(0);
  index_t entries = 0;
  for (std::size_t i = 0; i < row_count; ++i) {
    chunk.rows.push_back(a_row[static_cast<std::size_t>(out.rows[i].first)]);
    entries += out.rows[i].second;
    chunk.row_offsets.push_back(entries);
  }
  chunk.cols.resize(usize(entries));
  for (index_t e = 0; e < entries; ++e)
    chunk.cols[usize(e)] = codec.col_of(out.keys[usize(e)]);
  chunk.vals.assign(out.vals.begin(),
                    out.vals.begin() + static_cast<std::ptrdiff_t>(entries));
  return chunk;
}

/// Per-thread buffers of the ESC block. One thread_local instance serves
/// every block a thread runs, on either backend, so the steady state
/// allocates nothing in the hot loop.
template <class T>
struct EscWorkspace {
  std::vector<index_t> a_row;
  std::vector<index_t> local_row;
  std::vector<offset_t> counts;
  std::vector<index_t> long_entries;
  std::vector<std::uint64_t> keys;
  std::vector<T> vals;
  std::vector<index_t> car_col;
  std::vector<T> car_val;
  sim::RadixSortScratch<std::uint64_t, T> sort;
  CompactionOutput<T> compaction;

  static EscWorkspace& instance() {
    thread_local EscWorkspace ws;
    return ws;
  }
};

}  // namespace

/// The ESC block algorithm (Sections 3.2, 3.4), one kernel for both
/// backends. Each iteration draws its products through the work
/// distribution, expands and encodes them in one pass, sorts them with
/// sim::radix_sort (stable LSD, so the permutation of the GPU's block radix
/// sort) and compacts them with compact_sorted_into (Algorithm 3's
/// left-to-right combination of equal keys, in one pass). The GPU's work is
/// charged in closed form from quantities the loop already sees: products
/// drawn, B-row segments visited, the width the GPU sorts and the buffer
/// size. The backend only decides whether Pipeline::record_stage prices
/// these counters.
template <class T>
EscBlockResult<T> run_esc_block(const Csr<T>& a, const Csr<T>& b,
                                std::span<const index_t> block_row_starts,
                                std::size_t block_id, const Config& cfg,
                                ChunkPool& pool, BlockState<T>& state) {
  EscBlockResult<T> res;
  sim::MetricCounters& m = res.metrics;

  const offset_t begin =
      static_cast<offset_t>(block_id) * cfg.nnz_per_block;
  const offset_t end = std::min<offset_t>(a.nnz(), begin + cfg.nnz_per_block);
  const auto entries = static_cast<index_t>(end - begin);
  if (entries <= 0) {
    state.finished = true;
    return res;
  }

  EscWorkspace<T>& ws = EscWorkspace<T>::instance();

  // --- Fetch A (Section 3.2.1): coalesced load of the block's non-zeros,
  // column ids and (via the row pointer) row ids.
  m.global_bytes_coalesced +=
      static_cast<std::uint64_t>(entries) * (sizeof(index_t) + sizeof(T));

  std::vector<index_t>& a_row = ws.a_row;
  a_row.resize(static_cast<std::size_t>(entries));
  {
    index_t row = block_row_starts[block_id];
    for (index_t i = 0; i < entries; ++i) {
      const offset_t o = begin + i;
      while (a.row_ptr[static_cast<std::size_t>(row) + 1] <= o) ++row;
      a_row[static_cast<std::size_t>(i)] = row;
    }
    const index_t rows_in_block = a_row.back() - a_row.front() + 1;
    m.global_bytes_coalesced +=
        static_cast<std::uint64_t>(rows_in_block + 1) * sizeof(index_t);
  }

  // Row dictionary: local row id = index of the row's first non-zero in the
  // block (Section 3.2.1's bit-length reduction).
  std::vector<index_t>& local_row = ws.local_row;
  local_row.resize(static_cast<std::size_t>(entries));
  for (index_t i = 0; i < entries; ++i) {
    local_row[static_cast<std::size_t>(i)] =
        (i > 0 && a_row[static_cast<std::size_t>(i)] ==
                      a_row[static_cast<std::size_t>(i - 1)])
            ? local_row[static_cast<std::size_t>(i - 1)]
            : i;
  }

  // --- B row lengths (inspected "with little additional cost" while loading
  // each column index of A) and long-row detection (Section 3.4).
  const index_t long_threshold = cfg.effective_long_row_threshold();
  std::vector<offset_t>& counts = ws.counts;
  counts.resize(static_cast<std::size_t>(entries));
  std::vector<index_t>& long_entries = ws.long_entries;
  long_entries.clear();
  for (index_t i = 0; i < entries; ++i) {
    const index_t acol = a.col_idx[static_cast<std::size_t>(begin + i)];
    const index_t blen = b.row_length(acol);
    // Row-pointer pair lookup: column-local inputs keep one of the two
    // reads in cache; the other misses.
    m.global_bytes_scattered += sizeof(index_t);
    m.global_bytes_coalesced += sizeof(index_t);
    if (cfg.long_row_handling && blen >= long_threshold) {
      counts[static_cast<std::size_t>(i)] = 0;
      long_entries.push_back(i);
    } else {
      counts[static_cast<std::size_t>(i)] = blen;
    }
  }

  // Long-row pointer chunks, created idempotently across restarts.
  for (index_t j = state.long_rows_done;
       j < static_cast<index_t>(long_entries.size()); ++j) {
    const index_t i = long_entries[static_cast<std::size_t>(j)];
    const index_t acol = a.col_idx[static_cast<std::size_t>(begin + i)];
    Chunk<T> chunk;
    chunk.is_long_row = true;
    chunk.rows = {a_row[static_cast<std::size_t>(i)]};
    chunk.b_row = acol;
    chunk.factor = a.values[static_cast<std::size_t>(begin + i)];
    chunk.long_len = b.row_length(acol);
    chunk.order = {static_cast<std::uint32_t>(block_id), state.chunk_counter};
    if (!pool.try_allocate(chunk.byte_size())) {
      res.needs_restart = true;
      return res;
    }
    charge_chunk_write(m, chunk.byte_size(), 1);
    res.chunks.push_back(std::move(chunk));
    ++state.chunk_counter;
    state.long_rows_done = j + 1;
  }

  // --- Local work distribution (Algorithm 2), resumed at the iteration
  // whose chunk write failed in an earlier launch (0 on the first launch).
  WorkDistribution wd(counts, m);
  if (state.resume_consumed > 0) wd.fast_forward(state.resume_consumed, m);

  const index_t capacity = static_cast<index_t>(cfg.temp_capacity());
  const index_t retain_cap = static_cast<index_t>(cfg.retain_capacity());

  // Carried partial row between iterations (decoded form; re-encoded with
  // each iteration's codec), restored from the resume point.
  index_t carried_local_row = state.carry_row;
  std::vector<index_t>& car_col = ws.car_col;
  std::vector<T>& car_val = ws.car_val;
  car_col.assign(state.carry_cols.begin(), state.carry_cols.end());
  car_val.assign(state.carry_vals.begin(), state.carry_vals.end());
  // The restored carry is reloaded from global memory (spilled there when
  // the previous launch stopped).
  m.global_bytes_coalesced += car_col.size() * (sizeof(index_t) + sizeof(T));

  std::vector<std::uint64_t>& keys = ws.keys;
  std::vector<T>& vals = ws.vals;

  // Static column width of the fused encoding (see below), and the static
  // key width the GPU sorts without dynamic bit reduction.
  const int static_col_bits =
      sim::bits_for(static_cast<std::uint64_t>(b.cols - 1));
  const int static_key_bits =
      sim::bits_for(static_cast<std::uint64_t>(cfg.nnz_per_block - 1)) +
      static_col_bits;

  // Block-level spans only in detail mode (a span per local ESC iteration
  // is far too hot for always-on tracing; see DESIGN.md §7).
  trace::TraceSession* detail_trace =
      cfg.trace && cfg.trace->detail() ? cfg.trace : nullptr;

  while (wd.size() > 0) {
    ACS_TRACE_SCOPE(detail_trace, "esc.iteration");
    ++res.iterations;
    const offset_t iteration_start = wd.consumed();
    const auto carried = static_cast<index_t>(car_col.size());
    const offset_t consume =
        std::min<offset_t>(wd.size(), capacity - carried);
    const std::size_t n =
        static_cast<std::size_t>(carried) + static_cast<std::size_t>(consume);

    // --- Fused receive + expand + encode: each drawn product is touched
    // exactly once, and no item or product buffer materializes. The
    // segment visit hands over one B-row run per A entry, so the A-side
    // loads (value, local row, B row base) hoist out of the per-product
    // loop and the inner loop streams one row of B. The key row base is
    // known before the sweep (the carried row or the first pending A
    // entry, whichever is lower — drawn local rows are non-decreasing
    // because consumption sweeps the block's A entries in order), and the
    // column width is static, so keys encode final-form in the same pass.
    // The sort permutation and the decoded (row, column) pairs do not
    // depend on the encoding.
    keys.resize(n);
    vals.resize(n);
    const index_t first_lrow =
        local_row[static_cast<std::size_t>(wd.first_pending())];
    const index_t row_lo =
        carried > 0 ? std::min(carried_local_row, first_lrow) : first_lrow;
    std::size_t w = static_cast<std::size_t>(carried);
    index_t last_lrow_drawn = carried > 0 ? carried_local_row : first_lrow;
    std::uint64_t segments = 0;
    wd.receive_visit_segments(
        consume,
        [&](index_t a_idx, index_t b_lo, index_t b_hi) {
          ++segments;
          const std::size_t ai = static_cast<std::size_t>(begin + a_idx);
          const index_t lrow = local_row[static_cast<std::size_t>(a_idx)];
          last_lrow_drawn = lrow;
          const std::uint64_t krow = static_cast<std::uint64_t>(lrow - row_lo)
                                     << static_col_bits;
          const T aval = a.values[ai];
          const std::size_t base =
              static_cast<std::size_t>(b.row_ptr[usize(a.col_idx[ai])]);
          const index_t* bcol = b.col_idx.data() + base;
          const T* bval = b.values.data() + base;
          for (index_t off = b_hi; off-- > b_lo;) {
            keys[w] = krow | static_cast<std::uint64_t>(bcol[off]);
            vals[w] = aval * bval[off];
            ++w;
          }
        },
        m);
    // Expansion: each product loads one element of B (column and value)
    // coalesced, and each B-row segment costs one extra transaction.
    const auto drawn = static_cast<std::uint64_t>(consume);
    m.global_bytes_coalesced += drawn * (sizeof(index_t) + sizeof(T));
    m.global_bytes_scattered += 32 * segments;
    m.flops += 2 * drawn;

    const index_t row_hi = std::max(
        last_lrow_drawn, carried > 0 ? carried_local_row : last_lrow_drawn);
    const KeyCodec codec =
        KeyCodec::make(row_lo, row_hi, 0, b.cols - 1, true,
                       static_cast<index_t>(cfg.nnz_per_block - 1), b.cols - 1);
    // Carried elements first (stable sort keeps them ahead of new products
    // with equal keys, preserving prefix-sum accumulation).
    for (index_t i = 0; i < carried; ++i) {
      keys[static_cast<std::size_t>(i)] =
          codec.encode(carried_local_row, car_col[static_cast<std::size_t>(i)]);
      vals[static_cast<std::size_t>(i)] = car_val[static_cast<std::size_t>(i)];
    }

    // --- Sort, then compress (Algorithm 3's combination in one pass).
    sim::radix_sort(std::span(keys), std::span(vals), codec.total_bits(),
                    ws.sort);
    compact_sorted_into(std::span<const std::uint64_t>(keys),
                        std::span<const T>(vals), codec, ws.compaction);
    const CompactionOutput<T>& out = ws.compaction;
    assert(!out.rows.empty());

    // The GPU sorts the reduced key (Section 3.2.3): the local row range as
    // encoded plus the column range, or the static width without bit
    // reduction. Every distinct key survives compaction, so the compacted
    // keys span the buffer's columns. Then one block scan compacts.
    int sorted_bits = static_key_bits;
    if (cfg.dynamic_bits) {
      index_t min_col = b.cols;
      index_t max_col = 0;
      for (const std::uint64_t k : out.keys) {
        min_col = std::min(min_col, codec.col_of(k));
        max_col = std::max(max_col, codec.col_of(k));
      }
      sorted_bits =
          codec.row_bits() +
          sim::bits_for(static_cast<std::uint64_t>(max_col - min_col));
    }
    m.sort_pass_elements +=
        n * static_cast<std::uint64_t>(sim::radix_passes(sorted_bits));
    m.scan_elements += n;
    m.scratch_ops += n;

    const index_t last_lrow = out.rows.back().first;
    const bool more = wd.size() > 0;
    const index_t last_count = out.rows.back().second;
    const bool carry_last =
        more && retain_cap > 0 && last_count <= retain_cap;

    const std::size_t write_rows =
        carry_last ? out.rows.size() - 1 : out.rows.size();

    if (write_rows > 0) {
      Chunk<T> chunk = build_chunk(out, write_rows, codec,
                                   std::span<const index_t>(a_row),
                                   {static_cast<std::uint32_t>(block_id),
                                    state.chunk_counter});
      if (!pool.try_allocate(chunk.byte_size())) {
        // Resume point (DESIGN.md §8): this iteration's start and the carry
        // it began with, spilled to global memory for the relaunch.
        state.resume_consumed = iteration_start;
        state.carry_row = carried_local_row;
        state.carry_cols.assign(car_col.begin(), car_col.end());
        state.carry_vals.assign(car_val.begin(), car_val.end());
        m.global_bytes_coalesced +=
            car_col.size() * (sizeof(index_t) + sizeof(T));
        res.needs_restart = true;
        return res;
      }
      charge_chunk_write(m, chunk.byte_size(), write_rows);
      // Staging round trip through scratchpad for coalesced writes.
      m.scratch_ops += 2 * chunk.cols.size();
      res.chunks.push_back(std::move(chunk));
      ++state.chunk_counter;
    }

    if (carry_last) {
      carried_local_row = last_lrow;
      const std::size_t first =
          out.keys.size() - static_cast<std::size_t>(last_count);
      car_col.assign(static_cast<std::size_t>(last_count), 0);
      car_val.assign(static_cast<std::size_t>(last_count), T{});
      for (index_t i = 0; i < last_count; ++i) {
        car_col[static_cast<std::size_t>(i)] =
            codec.col_of(out.keys[first + static_cast<std::size_t>(i)]);
        car_val[static_cast<std::size_t>(i)] =
            out.vals[first + static_cast<std::size_t>(i)];
      }
    } else {
      carried_local_row = -1;
      car_col.clear();
      car_val.clear();
    }
  }

  state.finished = true;
  return res;
}

template EscBlockResult<float> run_esc_block(const Csr<float>&,
                                             const Csr<float>&,
                                             std::span<const index_t>,
                                             std::size_t, const Config&,
                                             ChunkPool&, BlockState<float>&);
template EscBlockResult<double> run_esc_block(const Csr<double>&,
                                              const Csr<double>&,
                                              std::span<const index_t>,
                                              std::size_t, const Config&,
                                              ChunkPool&, BlockState<double>&);

}  // namespace acs
