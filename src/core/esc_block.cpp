#include "core/esc_block.hpp"

#include <algorithm>
#include <cassert>

#include "arch/native_exec.hpp"
#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "core/work_distribution.hpp"
#include "sim/block_primitives.hpp"
#include "trace/trace.hpp"

namespace acs {
namespace {

// The native compaction enforces the exact counter bound the scan
// emulation does; the mirror must never drift.
static_assert(arch::kNativeCompactMaxElements ==
              compaction_detail::kCounterMask);

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

/// Atomic traffic of committing one chunk: pool allocation, per-row nnz
/// counter updates, and the two list-head insertions (first and last row).
inline void charge_chunk_write(sim::MetricCounters& m, std::size_t bytes,
                               std::size_t rows_in_chunk) {
  m.global_bytes_coalesced += bytes;
  m.atomic_ops += 1 + rows_in_chunk + 2;
}

/// One expanded product awaiting sort.
template <class T>
struct Product {
  index_t lrow, col;
  T val;
};

/// Per-thread buffers of one ESC block invocation. The simulated path
/// constructs a fresh instance per block (the GPU's per-launch scratch);
/// the native path reuses one thread_local instance across blocks, which
/// removes every steady-state allocation from the hot loop — the single
/// biggest wall-clock win of the NativeCpu backend (docs/BACKENDS.md).
template <class T>
struct EscWorkspace {
  std::vector<index_t> a_row;
  std::vector<index_t> local_row;
  std::vector<offset_t> counts;
  std::vector<index_t> long_entries;
  std::vector<WorkDistribution::Item> items;
  std::vector<std::uint64_t> keys;
  std::vector<T> vals;
  std::vector<Product<T>> prods;
  std::vector<index_t> car_col;
  std::vector<T> car_val;
  arch::NativeSortScratch<std::uint64_t, T> sort;
  CompactionOutput<T> compaction;

  static EscWorkspace& native_instance() {
    thread_local EscWorkspace ws;
    return ws;
  }
};

/// The ESC block algorithm (Sections 3.2, 3.4), shared by both backends.
/// `kNative` selects the execution policy, never the mathematics: the
/// native path reuses the thread-local workspace, expands and encodes each
/// drawn product in one pass, and keeps the sort-then-compact pipeline with
/// lean primitives — arch::native_radix_sort (stable LSD, so the same
/// permutation as the simulated block radix sort) followed by
/// arch::native_compact_sorted (the Algorithm 3 scan's left-to-right
/// combination of equal keys in one pass). It also skips the
/// simulated-traffic accounting. Outputs are bit-identical by construction;
/// tests/test_arch.cpp sweeps the differential generators over both paths
/// to observe it.
template <class T, bool kNative>
EscBlockResult<T> run_esc_block_impl(const Csr<T>& a, const Csr<T>& b,
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

  EscWorkspace<T> local_ws;
  EscWorkspace<T>& ws =
      kNative ? EscWorkspace<T>::native_instance() : local_ws;

  // --- Fetch A (Section 3.2.1): coalesced load of the block's non-zeros,
  // column ids and (via the row pointer) row ids.
  if constexpr (!kNative)
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
    if constexpr (!kNative) {
      const index_t rows_in_block =
          a_row.back() - a_row.front() + 1;
      m.global_bytes_coalesced +=
          static_cast<std::uint64_t>(rows_in_block + 1) * sizeof(index_t);
    }
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
    if constexpr (!kNative) {
      // Row-pointer pair lookup: column-local inputs keep one of the two
      // reads in cache; the other misses.
      m.global_bytes_scattered += sizeof(index_t);
      m.global_bytes_coalesced += sizeof(index_t);
    }
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
    if constexpr (!kNative)
      charge_chunk_write(m, chunk.byte_size(), 1);
    ACS_TRACE_COUNT(cfg.trace, pool_alloc_bytes, chunk.byte_size());
    ACS_TRACE_COUNT(cfg.trace, chunks_written, 1);
    ACS_TRACE_COUNT(cfg.trace, long_row_chunks, 1);
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
  if constexpr (!kNative)
    m.global_bytes_coalesced += car_col.size() * (sizeof(index_t) + sizeof(T));

  std::vector<std::uint64_t>& keys = ws.keys;
  std::vector<T>& vals = ws.vals;

  // Static column width of the native path's fused encoding (see below).
  [[maybe_unused]] const int static_col_bits =
      sim::bits_for(static_cast<std::uint64_t>(b.cols - 1));

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

    KeyCodec codec = KeyCodec::make(
        0, 0, 0, 0, false, static_cast<index_t>(cfg.nnz_per_block - 1),
        b.cols - 1);
    if constexpr (kNative) {
      // --- Fused receive + expand + encode: each drawn product is touched
      // exactly once — the item and product staging buffers of the simulated
      // path (the GPU's scatter into scratchpad) never materialize. The
      // segment visit hands over one B-row run per A entry, so the A-side
      // loads (value, local row, B row base) hoist out of the per-product
      // loop and the inner loop streams one row of B. The key row base is
      // known before the sweep (the carried row or the first pending A
      // entry, whichever is lower — drawn local rows are non-decreasing
      // because consumption sweeps the block's A entries in order), and the
      // column width is static, so keys encode final-form in the same pass.
      // The sort order and decoded (row, column) pairs — all that downstream
      // consumes — are unchanged by the encoding choice, so this stays
      // bit-identical to the simulated path's dynamic-bits codec.
      keys.resize(n);
      vals.resize(n);
      const index_t first_lrow =
          local_row[static_cast<std::size_t>(wd.first_pending())];
      const index_t row_lo =
          carried > 0 ? std::min(carried_local_row, first_lrow) : first_lrow;
      std::size_t w = static_cast<std::size_t>(carried);
      index_t last_lrow_drawn = carried > 0 ? carried_local_row : first_lrow;
      wd.receive_visit_segments(consume, [&](index_t a_idx, index_t b_lo,
                                             index_t b_hi) {
        const std::size_t ai = static_cast<std::size_t>(begin + a_idx);
        const index_t lrow = local_row[static_cast<std::size_t>(a_idx)];
        last_lrow_drawn = lrow;
        const std::uint64_t krow =
            static_cast<std::uint64_t>(lrow - row_lo) << static_col_bits;
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
      });

      const index_t row_hi = std::max(
          last_lrow_drawn, carried > 0 ? carried_local_row : last_lrow_drawn);
      codec = KeyCodec::make(row_lo, row_hi, 0, b.cols - 1, true,
                             static_cast<index_t>(cfg.nnz_per_block - 1),
                             b.cols - 1);
      // Carried elements first (stable sort keeps them ahead of new products
      // with equal keys, preserving prefix-sum accumulation).
      for (index_t i = 0; i < carried; ++i) {
        keys[static_cast<std::size_t>(i)] = codec.encode(
            carried_local_row, car_col[static_cast<std::size_t>(i)]);
        vals[static_cast<std::size_t>(i)] =
            car_val[static_cast<std::size_t>(i)];
      }
    } else {
      std::vector<WorkDistribution::Item>& items = ws.items;
      std::vector<Product<T>>& prods = ws.prods;
      items.clear();
      wd.receive(consume, items, m);

      // --- Expand: load the assigned B elements and multiply. Track the
      // dynamic key ranges and the coalescing structure (consecutive items
      // of the same A entry read consecutive B elements).
      keys.resize(n);
      vals.resize(n);

      index_t min_col = b.cols, max_col = 0;
      index_t min_lrow = entries, max_lrow = 0;
      for (index_t c : car_col) {
        min_col = std::min(min_col, c);
        max_col = std::max(max_col, c);
      }
      if (carried > 0) {
        min_lrow = std::min(min_lrow, carried_local_row);
        max_lrow = std::max(max_lrow, carried_local_row);
      }

      prods.resize(items.size());
      index_t prev_a = -1;
      for (std::size_t i = 0; i < items.size(); ++i) {
        const auto [a_idx, b_off] = items[i];
        const index_t acol = a.col_idx[static_cast<std::size_t>(begin + a_idx)];
        const index_t bk = b.row_ptr[usize(acol)] + b_off;
        const index_t bcol = b.col_idx[static_cast<std::size_t>(bk)];
        const T prod = a.values[static_cast<std::size_t>(begin + a_idx)] *
                       b.values[static_cast<std::size_t>(bk)];
        prods[i] = {local_row[static_cast<std::size_t>(a_idx)], bcol, prod};
        min_col = std::min(min_col, bcol);
        max_col = std::max(max_col, bcol);
        min_lrow = std::min(min_lrow, prods[i].lrow);
        max_lrow = std::max(max_lrow, prods[i].lrow);
        m.global_bytes_coalesced += sizeof(index_t) + sizeof(T);
        if (a_idx != prev_a) {
          // New B-row segment: one extra memory transaction of overhead.
          m.global_bytes_scattered += 32;
          prev_a = a_idx;
        }
      }
      m.flops += 2 * items.size();

      codec = KeyCodec::make(
          min_lrow, std::max(min_lrow, max_lrow), min_col,
          std::max(min_col, max_col), cfg.dynamic_bits,
          static_cast<index_t>(cfg.nnz_per_block - 1), b.cols - 1);

      // Buffer layout: carried elements first (stable sort keeps them ahead
      // of new products with equal keys, preserving prefix-sum
      // accumulation).
      for (index_t i = 0; i < carried; ++i) {
        keys[static_cast<std::size_t>(i)] = codec.encode(
            carried_local_row, car_col[static_cast<std::size_t>(i)]);
        vals[static_cast<std::size_t>(i)] =
            car_val[static_cast<std::size_t>(i)];
      }
      for (std::size_t i = 0; i < prods.size(); ++i) {
        keys[static_cast<std::size_t>(carried) + i] =
            codec.encode(prods[i].lrow, prods[i].col);
        vals[static_cast<std::size_t>(carried) + i] = prods[i].val;
      }
    }

    // --- Sort (block radix sort over the reduced bit range). Both sorts
    // are stable LSD ascending, so the permutation is identical; the
    // native one just uses wider digits and reused scratch.
    if constexpr (kNative)
      arch::native_radix_sort(std::span(keys), std::span(vals),
                              codec.total_bits(), ws.sort);
    else
      sim::block_radix_sort(std::span(keys), std::span(vals),
                            codec.total_bits(), m);

    // --- Compress (Algorithm 3 scan; the native path runs the single-pass
    // equivalent with the same left-to-right value association).
    if constexpr (kNative)
      arch::native_compact_sorted(
          std::span<const std::uint64_t>(keys), std::span<const T>(vals),
          codec, ws.compaction);
    else
      ws.compaction = compact_sorted<T>(std::span<const std::uint64_t>(keys),
                                        std::span<const T>(vals), codec, m);
    const CompactionOutput<T>& out = ws.compaction;
    assert(!out.rows.empty());

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
        if constexpr (!kNative)
          m.global_bytes_coalesced +=
              car_col.size() * (sizeof(index_t) + sizeof(T));
        res.needs_restart = true;
        return res;
      }
      if constexpr (!kNative) {
        charge_chunk_write(m, chunk.byte_size(), write_rows);
        // Staging round trip through scratchpad for coalesced writes.
        m.scratch_ops += 2 * chunk.cols.size();
      }
      ACS_TRACE_COUNT(cfg.trace, pool_alloc_bytes, chunk.byte_size());
      ACS_TRACE_COUNT(cfg.trace, chunks_written, 1);
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

}  // namespace

template <class T>
EscBlockResult<T> run_esc_block(const Csr<T>& a, const Csr<T>& b,
                                std::span<const index_t> block_row_starts,
                                std::size_t block_id, const Config& cfg,
                                ChunkPool& pool, BlockState<T>& state) {
  if (cfg.exec == arch::ExecKind::kNative)
    return run_esc_block_impl<T, true>(a, b, block_row_starts, block_id, cfg,
                                       pool, state);
  return run_esc_block_impl<T, false>(a, b, block_row_starts, block_id, cfg,
                                      pool, state);
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
