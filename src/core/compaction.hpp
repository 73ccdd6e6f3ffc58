#pragma once
/// \file compaction.hpp
/// The compaction step of local ESC: a single block-wide prefix scan with the
/// paper's special packed-state operator (Algorithm 3) that simultaneously
/// (1) combines values with equal sort keys, (2) counts compacted elements
/// per row and (3) counts compacted elements overall — giving every element
/// its position in the output chunk and its local offset in the row.
/// `compact_sorted` executes that scan; `compact_sorted_into`, the kernel
/// both backends run, computes the same result in one pass.
///
/// State-word layout (32 bits), matching Algorithm 3's constants:
///   bit  0        end-of-combine-sequence flag
///   bits 1..15    compacted elements in the current row (15-bit counter)
///   bit 16        end-of-row flag
///   bits 17..31   compacted elements overall (15-bit counter)
/// Elements that end a combine sequence initialize both counters to 1
/// ("end comp" = 0x00020003, "end row" = 0x00030003, "none" = 0).

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sort_key.hpp"
#include "matrix/types.hpp"
#include "sim/metrics.hpp"

namespace acs {

namespace compaction_detail {

constexpr std::uint32_t kFlagCombineEnd = 1u << 0;
constexpr std::uint32_t kFlagRowEnd = 1u << 16;
constexpr std::uint32_t kRowCountShift = 1;
constexpr std::uint32_t kTotalCountShift = 17;
constexpr std::uint32_t kCounterMask = 0x7FFF;
constexpr std::uint32_t kStateEndComp = 0x00020003;
constexpr std::uint32_t kStateEndRow = 0x00030003;

/// Compile-time mirrors of the packed-word arithmetic. The scan below and
/// the proofs in core/invariants.hpp share these, so the bit layout the
/// static_asserts certify is the one the algorithm actually runs.
constexpr std::uint32_t pack_state(std::uint32_t row_count,
                                   std::uint32_t total_count, bool combine_end,
                                   bool row_end) {
  return (combine_end ? kFlagCombineEnd : 0u) | (row_end ? kFlagRowEnd : 0u) |
         ((row_count & kCounterMask) << kRowCountShift) |
         ((total_count & kCounterMask) << kTotalCountShift);
}

constexpr std::uint32_t row_count_of(std::uint32_t state) {
  return (state >> kRowCountShift) & kCounterMask;
}

constexpr std::uint32_t total_count_of(std::uint32_t state) {
  return (state >> kTotalCountShift) & kCounterMask;
}

/// One element of the scan: sort key, value, packed state.
template <class T>
struct ScanElement {
  std::uint64_t key;
  T value;
  std::uint32_t state;
};

/// Algorithm 3's combine operator for adjacent elements a (left) and b
/// (right). When b starts a new row, a's row counter must not leak into b,
/// so the low half of a's state is cleared; a's flag bits are always cleared
/// so that only per-element flags survive in b's state.
template <class T>
constexpr ScanElement<T> combine_scan_operator(const ScanElement<T>& a,
                                               const ScanElement<T>& b,
                                               const KeyCodec& codec) {
  std::uint32_t state;
  if (codec.same_row(a.key, b.key)) {
    state = a.state & ~(kFlagCombineEnd | kFlagRowEnd);
  } else {
    state = a.state & 0xFFFE0000;  // reset row counter, keep total counter
  }
  ScanElement<T> n;
  if (a.key == b.key) {
    n.value = a.value + b.value;
  } else {
    n.value = b.value;
  }
  n.key = b.key;
  n.state = state + b.state;
  return n;
}

}  // namespace compaction_detail

/// Result of compacting one sorted buffer.
template <class T>
struct CompactionOutput {
  std::vector<std::uint64_t> keys;  ///< compacted keys, ascending
  std::vector<T> vals;              ///< combined values
  /// (local row id, compacted entries in that row), ascending by row.
  std::vector<std::pair<index_t, index_t>> rows;
};

/// Throws when `n` elements would overflow the 15-bit scan counters. They
/// silently wrap into the neighbouring flag/counter fields past
/// kCounterMask, corrupting every extracted position — so the bound is
/// enforced even under NDEBUG. Upstream, Pipeline::validate caps
/// temp_capacity() and run_merge_block caps windows, so a throw here means
/// a caller bypassed both (tests/test_invariants.cpp exercises the boundary
/// from both sides).
inline void check_compaction_size(const char* who, std::size_t n) {
  if (n > compaction_detail::kCounterMask)
    throw std::length_error(
        std::string(who) + ": " + std::to_string(n) +
        " elements exceed the 15-bit scan counters (max " +
        std::to_string(compaction_detail::kCounterMask) + ")");
}

/// The compaction both backends run: one left-to-right pass over a buffer
/// sorted by `keys` (ascending) that sums the values of equal keys and
/// records (row, count) pairs at row ends. It computes exactly what
/// `compact_sorted`'s Algorithm 3 scan computes — same association, same
/// layout — and is held to the same counter bound. Clears `out` but keeps
/// its capacity, so a caller reusing one output allocates nothing in the
/// steady state. The GPU's work for it, one block scan (n scan elements
/// and n scratchpad ops), is charged by the caller.
template <class T>
void compact_sorted_into(std::span<const std::uint64_t> keys,
                         std::span<const T> vals, const KeyCodec& codec,
                         CompactionOutput<T>& out) {
  out.keys.clear();
  out.vals.clear();
  out.rows.clear();
  const std::size_t n = keys.size();
  assert(vals.size() == n);
  check_compaction_size("compact_sorted_into", n);
  if (n == 0) return;

  std::uint64_t run_key = keys[0];
  T run_val = vals[0];
  index_t row_count = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (i < n && keys[i] == run_key) {
      // Same association as the inclusive scan: accumulate left to right.
      run_val = run_val + vals[i];
      continue;
    }
    out.keys.push_back(run_key);
    out.vals.push_back(run_val);
    ++row_count;
    if (i == n || !codec.same_row(keys[i], run_key)) {
      out.rows.emplace_back(codec.row_of(run_key), row_count);
      row_count = 0;
    }
    if (i < n) {
      run_key = keys[i];
      run_val = vals[i];
    }
  }
}

/// Compact a buffer sorted by `keys` (ascending) with Algorithm 3's packed
/// scan, executed element by element: sum values of equal keys (left to
/// right, preserving the deterministic accumulation order the paper's
/// bit-stability rests on) and report per-row counts. Charges one block
/// scan of the buffer to `m`. The test oracle for `compact_sorted_into`.
template <class T>
CompactionOutput<T> compact_sorted(std::span<const std::uint64_t> keys,
                                   std::span<const T> vals,
                                   const KeyCodec& codec,
                                   sim::MetricCounters& m) {
  namespace cd = compaction_detail;
  const std::size_t n = keys.size();
  assert(vals.size() == n);
  check_compaction_size("compact_sorted", n);

  CompactionOutput<T> out;
  if (n == 0) return out;

  // Initialize per-element states from neighbour comparisons — each thread
  // does this for its own registers on the GPU.
  std::vector<cd::ScanElement<T>> elems(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool combine_end = (i + 1 == n) || keys[i + 1] != keys[i];
    const bool row_end =
        (i + 1 == n) || !codec.same_row(keys[i + 1], keys[i]);
    std::uint32_t state = 0;
    if (row_end) {
      state = cd::kStateEndRow;
    } else if (combine_end) {
      state = cd::kStateEndComp;
    }
    elems[i] = {keys[i], vals[i], state};
  }

  // Inclusive scan with the combine operator.
  for (std::size_t i = 1; i < n; ++i)
    elems[i] = cd::combine_scan_operator(elems[i - 1], elems[i], codec);
  m.scan_elements += n;
  m.scratch_ops += n;

  // Extraction: combine-sequence ends are the compacted elements; row ends
  // carry the per-row counts. Flags are re-derived from neighbours exactly
  // as during initialization (on the GPU each thread still holds them).
  for (std::size_t i = 0; i < n; ++i) {
    const bool combine_end = (i + 1 == n) || keys[i + 1] != keys[i];
    const bool row_end =
        (i + 1 == n) || !codec.same_row(keys[i + 1], keys[i]);
    if (combine_end) {
      const std::uint32_t pos = cd::total_count_of(elems[i].state) - 1;
      assert(pos == out.keys.size());
      (void)pos;
      out.keys.push_back(elems[i].key);
      out.vals.push_back(elems[i].value);
    }
    if (row_end) {
      const auto row_count =
          static_cast<index_t>(cd::row_count_of(elems[i].state));
      out.rows.emplace_back(codec.row_of(keys[i]), row_count);
    }
  }
  return out;
}

}  // namespace acs
