#pragma once
/// \file invariants.hpp
/// Compile-time proofs of the core layer's implicit contracts (DESIGN.md
/// §10). Everything in this header is a static_assert over constexpr
/// mirrors that the algorithms themselves use — if a refactor breaks a bit
/// layout, a header constant or a codec round-trip, the build fails here
/// before any test runs. Included from core/acspgemm.cpp so the proofs are
/// checked in every build of the library, and from tests/test_invariants.cpp
/// which cross-checks them against runtime behaviour.
///
/// Proof groups:
///   1. Compaction packed-state word (Algorithm 3): field layout, the
///      magic end-state constants, pack/unpack round trips at the 15-bit
///      boundaries, and why the kCounterMask capacity bound exists.
///   2. A constexpr execution of the combine-scan operator on a miniature
///      sorted buffer (float and double), proving the operator's counting
///      semantics, not just its bit masks.
///   3. Chunk header accounting: the 32 B header / 48 B pointer-chunk
///      constants against the fields they must hold, via a constexpr
///      byte_size evaluation.
///   4. Sort-key bit reduction: bits_for boundaries, the paper's 9+23=32
///      example, codec round trips at range extremes, and 64-bit key
///      sufficiency for the default block shape.
///   5. Restart pool growth: the 64 KiB floor, doubling in between, and
///      the 1 GiB cap.

#include <cstdint>
#include <type_traits>

#include "core/chunk.hpp"
#include "core/compaction.hpp"
#include "core/config.hpp"
#include "core/sort_key.hpp"
#include "sim/block_primitives.hpp"

namespace acs::invariants {

namespace cd = compaction_detail;

// ---------------------------------------------------------------------------
// 1. Packed scan-state word (compaction.hpp, Algorithm 3).
// ---------------------------------------------------------------------------

// Flag bits sit at 0 and 16; each 15-bit counter fills the gap above its
// flag. Layout: [31..17 total][16 row-end][15..1 row count][0 combine-end].
static_assert(cd::kFlagCombineEnd == 1u << 0);
static_assert(cd::kFlagRowEnd == 1u << 16);
static_assert(cd::kRowCountShift == 1);
static_assert(cd::kTotalCountShift == 17);
static_assert(cd::kCounterMask == (1u << 15) - 1);

// The four fields tile the 32-bit word without overlap or gaps.
inline constexpr std::uint32_t kRowCountField = cd::kCounterMask
                                                << cd::kRowCountShift;
inline constexpr std::uint32_t kTotalCountField = cd::kCounterMask
                                                  << cd::kTotalCountShift;
static_assert((kRowCountField & kTotalCountField) == 0);
static_assert((kRowCountField & (cd::kFlagCombineEnd | cd::kFlagRowEnd)) == 0);
static_assert((kTotalCountField & (cd::kFlagCombineEnd | cd::kFlagRowEnd)) ==
              0);
static_assert((cd::kFlagCombineEnd | kRowCountField | cd::kFlagRowEnd |
               kTotalCountField) == 0xFFFFFFFFu);

// The magic end-state constants of Algorithm 3 are exactly "both counters
// 1, combine-end set" (plus row-end for kStateEndRow) — not free numbers.
static_assert(cd::kStateEndComp == cd::pack_state(1, 1, true, false));
static_assert(cd::kStateEndRow == cd::pack_state(1, 1, true, true));
static_assert(cd::kStateEndRow == (cd::kStateEndComp | cd::kFlagRowEnd));

// Pack/unpack round-trips at the boundary values of both counters, with
// every flag combination.
constexpr bool pack_round_trips() {
  constexpr std::uint32_t counters[] = {0, 1, 2, cd::kCounterMask - 1,
                                        cd::kCounterMask};
  for (std::uint32_t row : counters)
    for (std::uint32_t total : counters)
      for (int flags = 0; flags < 4; ++flags) {
        const bool ce = (flags & 1) != 0;
        const bool re = (flags & 2) != 0;
        const std::uint32_t s = cd::pack_state(row, total, ce, re);
        if (cd::row_count_of(s) != row) return false;
        if (cd::total_count_of(s) != total) return false;
        if (((s & cd::kFlagCombineEnd) != 0) != ce) return false;
        if (((s & cd::kFlagRowEnd) != 0) != re) return false;
      }
  return true;
}
static_assert(pack_round_trips());

// Counter addition — the whole point of the packed word: adding two states
// sums both counters independently while the sums stay within 15 bits.
static_assert(cd::row_count_of(cd::pack_state(3, 10, false, false) +
                               cd::pack_state(4, 20, false, false)) == 7);
static_assert(cd::total_count_of(cd::pack_state(3, 10, false, false) +
                                 cd::pack_state(4, 20, false, false)) == 30);
static_assert(cd::row_count_of(cd::pack_state(cd::kCounterMask - 1, 0, false,
                                              false) +
                               cd::pack_state(1, 0, false, false)) ==
              cd::kCounterMask);

// ...and why compact_sorted's kCounterMask bound exists: one element past
// the mask, the row counter's carry lands in the row-end flag bit,
// corrupting the word. This is the overflow the runtime guard throws on.
static_assert(((cd::pack_state(cd::kCounterMask, 0, false, false) +
                cd::pack_state(1, 0, false, false)) &
               cd::kFlagRowEnd) != 0);

// ---------------------------------------------------------------------------
// 2. The combine-scan operator, executed at compile time.
// ---------------------------------------------------------------------------

/// Runs Algorithm 3's inclusive scan over a miniature sorted buffer —
/// rows {0,0,0,2}, columns {5,5,9,1}, so one combine, three compacted
/// elements, row counts {2,1} — and checks every extracted position and
/// count, exactly as compact_sorted does at run time.
template <class T>
constexpr bool scan_operator_counts_correctly() {
  constexpr KeyCodec codec = KeyCodec::make(0, 3, 0, 15, true, 0, 0);
  constexpr int n = 4;
  const std::uint64_t keys[n] = {codec.encode(0, 5), codec.encode(0, 5),
                                 codec.encode(0, 9), codec.encode(2, 1)};
  const T vals[n] = {T(1), T(2), T(4), T(8)};

  cd::ScanElement<T> elems[n] = {};
  for (int i = 0; i < n; ++i) {
    const bool combine_end = (i + 1 == n) || keys[i + 1] != keys[i];
    const bool row_end = (i + 1 == n) || !codec.same_row(keys[i + 1], keys[i]);
    std::uint32_t state = 0;
    if (row_end) {
      state = cd::kStateEndRow;
    } else if (combine_end) {
      state = cd::kStateEndComp;
    }
    elems[i] = {keys[i], vals[i], state};
  }
  for (int i = 1; i < n; ++i)
    elems[i] = cd::combine_scan_operator(elems[i - 1], elems[i], codec);

  // Element 1 ends the combined (0,5) pair: value 1+2, first output slot.
  if (elems[1].value != T(3)) return false;
  if (cd::total_count_of(elems[1].state) != 1) return false;
  // Element 2 ends row 0 with 2 compacted elements, output slot 2.
  if (cd::row_count_of(elems[2].state) != 2) return false;
  if (cd::total_count_of(elems[2].state) != 2) return false;
  // Element 3 is row 2 alone: the row counter restarted at 1 (no leak from
  // row 0), the total kept counting to 3, and the value passed through.
  if (cd::row_count_of(elems[3].state) != 1) return false;
  if (cd::total_count_of(elems[3].state) != 3) return false;
  if (elems[3].value != T(8)) return false;
  return codec.row_of(elems[3].key) == 2 && codec.col_of(elems[3].key) == 1;
}
static_assert(scan_operator_counts_correctly<float>());
static_assert(scan_operator_counts_correctly<double>());

// ---------------------------------------------------------------------------
// 3. Chunk header accounting and pool placement (chunk.hpp).
// ---------------------------------------------------------------------------

// The 32 B header holds the paper layout's fixed fields (start row, entry
// and row counts, list link) with room to spare, and stays 16-byte aligned
// for coalesced header reads.
static_assert(kChunkHeaderBytes % 16 == 0);
static_assert(kChunkHeaderBytes >= 2 * sizeof(index_t) + 2 * sizeof(void*));
// A pointer chunk extends the header by a B-row reference, a length and a
// double-width scale factor — 48 B covers it, again 16-byte aligned.
static_assert(kPointerChunkBytes % 16 == 0);
static_assert(kPointerChunkBytes - kChunkHeaderBytes >=
              2 * sizeof(index_t) + sizeof(double));

// byte_size, evaluated at compile time over a header of spans: a 2-row,
// 3-entry chunk pays header + boundaries + payload; a long-row chunk pays
// the fixed record regardless of its materialized length.
template <class T>
constexpr bool chunk_accounting_holds() {
  const index_t rows[] = {4, 5};
  const index_t offsets[] = {0, 2, 3};
  const index_t cols[] = {7, 9, 7};
  const T vals[] = {T(1), T(2), T(3)};
  Chunk<T> c;
  c.rows = rows;
  c.row_offsets = offsets;
  c.cols = cols;
  c.vals = vals;
  if (c.byte_size() != Chunk<T>::charged_bytes(2, 3)) return false;
  if (c.byte_size() !=
      kChunkHeaderBytes + 2 * sizeof(index_t) + 3 * (sizeof(index_t) + sizeof(T)))
    return false;
  if (c.entry_count() != 3) return false;
  Chunk<T> p;
  p.is_long_row = true;
  p.b_row = 11;
  p.long_len = 100000;
  p.factor = T(2);
  return p.byte_size() == kPointerChunkBytes && p.entry_count() == 100000;
}
static_assert(chunk_accounting_holds<float>());
static_assert(chunk_accounting_holds<double>());

// The shared per-entry pool cost (chunk.hpp kChunkEntryBytes): exactly the
// ESC-global baseline's (row, col, value) temp record...
static_assert(kChunkEntryBytes<float> == 2 * sizeof(index_t) + sizeof(float));
static_assert(kChunkEntryBytes<double> ==
              2 * sizeof(index_t) + sizeof(double));
// ...and an upper bound on the chunk layout's variable cost: charging every
// entry kChunkEntryBytes covers the (index_t + T) payload plus the per-row
// boundary, because a chunk never covers more rows than it has entries.
template <class T>
constexpr bool entry_cost_covers_chunk_payload() {
  const index_t rows[] = {4, 5};
  const index_t offsets[] = {0, 2, 3};
  const index_t cols[] = {7, 9, 7};
  const T vals[] = {T(1), T(2), T(3)};
  Chunk<T> c;
  c.rows = rows;
  c.row_offsets = offsets;
  c.cols = cols;
  c.vals = vals;
  return c.byte_size() <= kChunkHeaderBytes + 3 * kChunkEntryBytes<T>;
}
static_assert(entry_cost_covers_chunk_payload<float>());
static_assert(entry_cost_covers_chunk_payload<double>());
// The pointer-chunk record is cheaper than materializing even one entry's
// worth of header+payload — diverting a long row can only shrink the pool.
static_assert(kPointerChunkBytes <=
              kChunkHeaderBytes + kChunkEntryBytes<double>);

inline constexpr std::size_t kKiB = std::size_t{1} << 10;
inline constexpr std::size_t kMiB = std::size_t{1} << 20;
inline constexpr std::size_t kGiB = std::size_t{1} << 30;

// Pool placement (ChunkLayout). A region comes from operator new, aligned
// for any payload element, and every placement is a multiple of
// kPlacementAlign, so each array of a placement is aligned for its type.
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kPlacementAlign);
static_assert(kPoolRegionBytes % kPlacementAlign == 0);
static_assert(kPlacementAlign >= alignof(double) &&
              kPlacementAlign >= alignof(index_t));
template <class T>
constexpr bool placement_is_aligned(std::size_t rows, std::size_t entries) {
  const ChunkLayout<T> l{rows, entries};
  return l.bytes() % kPlacementAlign == 0 && l.vals_at() % alignof(T) == 0 &&
         l.cols_at() % alignof(index_t) == 0 && l.bytes() >= l.vals_at();
}
static_assert(placement_is_aligned<float>(1, 1));
static_assert(placement_is_aligned<float>(3, 4));
static_assert(placement_is_aligned<double>(1, 0));  // pointer chunk
static_assert(placement_is_aligned<double>(2, 3));
static_assert(placement_is_aligned<double>(4, 4));
// The largest chunk a validated Config writes — every entry of a
// temp_capacity() buffer (at most 32767, the compaction counters' range),
// one row each — is under 1 MiB, so a placement never straddles more than
// one region boundary and a region's dropped tail stays under 1/16 of it.
static_assert(ChunkLayout<double>{32767, 32767}.bytes() < kMiB);
static_assert(16 * kMiB <= kPoolRegionBytes);
// Regions stay under glibc's 32 MiB ceiling on heap-served blocks.
static_assert(kPoolRegionBytes < 32 * kMiB);
// A placement exceeds its charge only by the row ids beside the per-row
// boundaries, the extra row offset and alignment padding, less the 32 B
// header the Chunk object keeps: so placed bytes stay under 4/3 of the
// charged bytes, which caps a pool's storage at 4/3 of its capacity plus
// each region's dropped tail.
template <class T>
constexpr bool placement_within_charge(std::size_t rows, std::size_t entries) {
  const std::size_t placed = ChunkLayout<T>{rows, entries}.bytes();
  const std::size_t charged = Chunk<T>::charged_bytes(rows, entries);
  return placed <= charged - kChunkHeaderBytes +
                       (rows + 1) * sizeof(index_t) + kPlacementAlign &&
         3 * placed <= 4 * charged;
}
static_assert(placement_within_charge<float>(1, 1));
static_assert(placement_within_charge<float>(2048, 2048));
static_assert(placement_within_charge<double>(1, 1));
static_assert(placement_within_charge<double>(1, 2048));
static_assert(placement_within_charge<double>(2048, 2048));
static_assert(placement_within_charge<double>(32767, 32767));

// The deterministic chunk order must stay a plain 8-byte value type — the
// engine copies it around freely and sorts on it.
static_assert(std::is_trivially_copyable_v<ChunkOrder>);
static_assert(sizeof(ChunkOrder) == 2 * sizeof(std::uint32_t));

// ---------------------------------------------------------------------------
// 4. Sort-key dynamic bit reduction (sort_key.hpp).
// ---------------------------------------------------------------------------

// bits_for boundaries: exact powers of two tip over to the next width.
static_assert(sim::bits_for(0) == 0);
static_assert(sim::bits_for(1) == 1);
static_assert(sim::bits_for(255) == 8);
static_assert(sim::bits_for(256) == 9);
static_assert(sim::bits_for((std::uint64_t{1} << 32) - 1) == 32);

// The paper's Section 3.2.3 example: 512 local rows need 9 bits, leaving
// 23 bits of a 32-bit key for columns — matrices up to 2^23 columns sort
// with half-width keys.
static_assert(sim::bits_for(511) == 9);
static_assert(9 + sim::bits_for((1u << 23) - 1) == 32);

// Radix passes are ceil(bits/4): the dynamic reduction's saving is whole
// 4-bit passes, so width bounds translate directly into work bounds.
static_assert(sim::radix_passes(0) == 0);
static_assert(sim::radix_passes(32) == 8);
static_assert(sim::radix_passes(33) == 9);
static_assert(sim::radix_passes(64) == 16);

// Codec round trip at the extremes of a shifted range (the dynamic path
// subtracts the minima before packing).
constexpr KeyCodec kShifted = KeyCodec::make(5, 37, 100, 1000, true, 0, 0);
static_assert(kShifted.row_of(kShifted.encode(5, 100)) == 5);
static_assert(kShifted.col_of(kShifted.encode(5, 100)) == 100);
static_assert(kShifted.row_of(kShifted.encode(37, 1000)) == 37);
static_assert(kShifted.col_of(kShifted.encode(37, 1000)) == 1000);
static_assert(kShifted.same_row(kShifted.encode(7, 100),
                                kShifted.encode(7, 1000)));
static_assert(!kShifted.same_row(kShifted.encode(7, 100),
                                 kShifted.encode(8, 100)));
// Keys compare in (row, column) order — the property radix sort relies on.
static_assert(kShifted.encode(7, 1000) < kShifted.encode(8, 100));

// The static (ablation) codec must cover the full index range: worst-case
// local row count of the default block shape plus a full 31-bit column
// space still fits a 64-bit key.
inline constexpr Config kDefaultConfig{};
static_assert(kDefaultConfig.temp_capacity() == 2048);
static_assert(kDefaultConfig.temp_capacity() <=
              static_cast<int>(cd::kCounterMask));
constexpr KeyCodec kStaticWorstCase =
    KeyCodec::make(0, 0, 0, 0, false, kDefaultConfig.temp_capacity() - 1,
                   index_t{0x7FFFFFFE});
static_assert(kStaticWorstCase.total_bits() <= 64);
static_assert(kStaticWorstCase.row_of(kStaticWorstCase.encode(
                  2047, 0x7FFFFFFE)) == 2047);
static_assert(kStaticWorstCase.col_of(kStaticWorstCase.encode(
                  2047, 0x7FFFFFFE)) == 0x7FFFFFFE);

// ---------------------------------------------------------------------------
// 5. Restart pool growth (chunk.hpp, restart_growth_step).
// ---------------------------------------------------------------------------

// Floor: a tiny (or empty) pool still grows by 64 KiB per round.
static_assert(restart_growth_step(0) == 64 * kKiB);
static_assert(restart_growth_step(4 * kKiB) == 64 * kKiB);
// Doubling: between the bounds the step is the capacity itself.
static_assert(restart_growth_step(64 * kKiB) == 64 * kKiB);
static_assert(restart_growth_step(100 * kMiB) == 100 * kMiB);
static_assert(restart_growth_step(kGiB) == kGiB);
// Cap: beyond 1 GiB the pool grows linearly, 1 GiB per round.
static_assert(restart_growth_step(kGiB + 1) == kGiB);
static_assert(restart_growth_step(3 * kGiB) == kGiB);

}  // namespace acs::invariants
