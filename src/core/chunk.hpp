#pragma once
/// \file chunk.hpp
/// Chunk-based storage of partial results of C (Section 3.2.4). Each chunk
/// holds the column ids and values of a contiguous set of output rows
/// produced by one block, plus the per-row boundaries needed for the final
/// copy. Long rows of B are represented by pointer chunks that reference
/// the row of B and carry the scaling factor from A (Section 3.4). The pool
/// charges each chunk against a capacity, whose exhaustion triggers the
/// restart mechanism, and owns the storage regions the chunks are views of.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "matrix/types.hpp"
#include "sim/metrics.hpp"

namespace acs {

/// Chunk-pool accounting constants (the paper's layout). Every materialized
/// chunk pays a fixed header — start row, entry/row counts and the list
/// link, padded to 32 B; a long-row pointer chunk is a fixed 48 B record
/// (header + B-row reference, length and scale factor). The relationships
/// between these and the payload element sizes are proven at compile time
/// in core/invariants.hpp.
inline constexpr std::size_t kChunkHeaderBytes = 32;
inline constexpr std::size_t kPointerChunkBytes = 48;

/// Bytes one temporary product costs in every global-memory layout that
/// stores it with its row: two indices (row boundary / row key + column id)
/// plus the value. This is exactly the ESC-global baseline's (row, col,
/// value) temp record, and it dominates the chunk layout's per-entry cost —
/// a chunk charges (index_t + T) payload per entry plus one index_t row
/// boundary per covered row, and a chunk never covers more rows than it has
/// entries. The pool estimators (core/acspgemm.cpp, src/estimate) and
/// baselines/esc_global.cpp all charge this one constant so their byte
/// accounting can never drift apart; core/invariants.hpp proves the layout
/// relations at compile time.
template <class T>
inline constexpr std::size_t kChunkEntryBytes =
    2 * sizeof(index_t) + sizeof(T);

/// Global traffic of committing one chunk, charged by the ESC and merge
/// kernels alike: its `bytes` written coalesced, plus the atomics of the
/// pool allocation, one nnz-counter update per covered row, and the two
/// list-head insertions (first and last row).
inline void charge_chunk_write(sim::MetricCounters& m, std::size_t bytes,
                               std::size_t rows_in_chunk) {
  m.global_bytes_coalesced += bytes;
  m.atomic_ops += 1 + rows_in_chunk + 2;
}

/// Deterministic global chunk order: block id + per-block running chunk
/// number, the paper's replacement for the scheduler-dependent linked-list
/// insertion order ("which yields a global ordering of chunks").
struct ChunkOrder {
  std::uint32_t block = 0;
  std::uint32_t counter = 0;

  friend bool operator<(const ChunkOrder& a, const ChunkOrder& b) {
    if (a.block != b.block) return a.block < b.block;
    return a.counter < b.counter;
  }
  friend bool operator==(const ChunkOrder& a, const ChunkOrder& b) {
    return a.block == b.block && a.counter == b.counter;
  }
};

/// Bytes of one chunk-pool storage region: far above the largest chunk a
/// validated Config can write (under 1 MiB, core/invariants.hpp), so a
/// region's dropped tail is small, and under glibc's 32 MiB ceiling for
/// blocks its malloc may keep on the heap, so a freed region stays warm
/// for the next call; EXPERIMENTS.md ("a real chunk pool") measures both.
inline constexpr std::size_t kPoolRegionBytes = std::size_t{16} << 20;

/// Alignment of every chunk placement in pool storage: the widest payload
/// element (a double value).
inline constexpr std::size_t kPlacementAlign = 8;

/// Where one materialized chunk's payload sits inside its placement: the
/// `row_count` row ids, the row_count + 1 row offsets and the column ids,
/// then the values at their own alignment. The size rounds up to
/// kPlacementAlign, so the next placement starts aligned. This is the
/// charged layout (`Chunk::charged_bytes`) less the 32 B header, which
/// lives in the `Chunk` object, plus the extra row offset and padding.
template <class T>
struct ChunkLayout {
  std::size_t row_count = 0;
  std::size_t entries = 0;

  [[nodiscard]] constexpr std::size_t offsets_at() const {
    return row_count * sizeof(index_t);
  }
  [[nodiscard]] constexpr std::size_t cols_at() const {
    return offsets_at() + (row_count + 1) * sizeof(index_t);
  }
  [[nodiscard]] constexpr std::size_t vals_at() const {
    return round_up(cols_at() + entries * sizeof(index_t), alignof(T));
  }
  [[nodiscard]] constexpr std::size_t bytes() const {
    return round_up(vals_at() + entries * sizeof(T), kPlacementAlign);
  }
};

/// A chunk: a fixed header of spans into chunk-pool storage, which the
/// pool owns and frees (or recycles) when the multiplication ends.
template <class T>
struct Chunk {
  /// Global row ids covered, ascending. Only the first and last can be
  /// shared with other chunks; interior rows are complete. A pointer chunk
  /// covers one row.
  std::span<const index_t> rows;
  /// Entry offsets per covered row: row i owns [row_offsets[i],
  /// row_offsets[i+1]) of cols/vals. Size rows.size()+1; a pointer chunk's
  /// are {0, long_len}.
  std::span<const index_t> row_offsets;
  std::span<const index_t> cols;
  std::span<const T> vals;
  ChunkOrder order;

  /// Long-row pointer chunk: no materialized data; the chunk stands for
  /// `factor` times row `b_row` of B, which has `long_len` entries.
  bool is_long_row = false;
  index_t b_row = -1;
  T factor{};
  index_t long_len = 0;

  [[nodiscard]] constexpr index_t entry_count() const {
    return is_long_row ? long_len : static_cast<index_t>(cols.size());
  }

  /// Bytes charged against the chunk pool for a materialized chunk of
  /// `row_count` rows and `entries` entries: header (start row, counts,
  /// list link — 32 B as in the paper's layout), per-row boundaries, and
  /// the column/value payload.
  [[nodiscard]] static constexpr std::size_t charged_bytes(
      std::size_t row_count, std::size_t entries) {
    return kChunkHeaderBytes + row_count * sizeof(index_t) +
           entries * (sizeof(index_t) + sizeof(T));
  }

  /// This chunk's charge. Pointer chunks cost only the fixed 48 B record.
  [[nodiscard]] constexpr std::size_t byte_size() const {
    if (is_long_row) return kPointerChunkBytes;
    return charged_bytes(rows.size(), cols.size());
  }
};

/// Writable views of one chunk placement, filled by the kernel that
/// charged it and then frozen into a `Chunk` header.
template <class T>
struct ChunkSlot {
  std::span<index_t> rows;
  std::span<index_t> row_offsets;
  std::span<index_t> cols;
  std::span<T> vals;

  [[nodiscard]] Chunk<T> chunk(ChunkOrder order) const {
    Chunk<T> c;
    c.rows = rows;
    c.row_offsets = row_offsets;
    c.cols = cols;
    c.vals = vals;
    c.order = order;
    return c;
  }
};

/// Where a ChunkPool takes its storage regions from and gives them back
/// to. The pool takes a region from whichever block first writes into it
/// and gives every region back when it is destroyed, so both calls must be
/// thread-safe. The engine's arena (src/runtime/pool_arena.hpp) recycles
/// them across jobs; a pool without a source allocates its own.
class RegionSource {
 public:
  /// A region of kPoolRegionBytes, aligned to at least kPlacementAlign.
  virtual std::byte* take_region() = 0;
  virtual void give_back(std::byte* region) noexcept = 0;

 protected:
  ~RegionSource() = default;
};

/// A new region of kPoolRegionBytes from the heap. Nothing is touched or
/// zero-filled: a page the allocator takes from the OS is backed only when
/// a chunk is first written into it. Throws std::bad_alloc.
[[nodiscard]] std::byte* allocate_region();
/// Free a region from `allocate_region`.
void free_region(std::byte* region) noexcept;

/// One `ChunkPool::try_allocate` attempt as seen by an `AllocationPolicy`.
/// `index` is the 0-based sequence number of the attempt over the pool's
/// lifetime — replayed allocations after a restart draw fresh indices, so a
/// policy that denies attempt N lets the replay of the same chunk through.
struct AllocationRequest {
  std::uint64_t index = 0;  ///< global attempt number (denied or not)
  std::size_t bytes = 0;    ///< requested size
  std::size_t used = 0;     ///< pool usage before this attempt
  std::size_t capacity = 0; ///< pool capacity at this attempt
};

/// Fault-injection hook consulted by `ChunkPool::try_allocate` before the
/// capacity check. Returning false denies the allocation exactly as a real
/// exhaustion would — the caller observes `try_allocate() == false` and
/// enters the restart protocol — which makes every restart path reachable
/// on demand instead of only via undersized pools. Implementations must be
/// safe to call from concurrent scheduler threads; deterministic injectors
/// live in src/fault/ (see DESIGN.md §8).
class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;
  /// True to allow the attempt, false to simulate pool exhaustion.
  virtual bool allow(const AllocationRequest& request) = 0;
};

/// One restart round's pool growth ("resize and restart", §3.5): the step
/// is the current capacity, so the pool doubles, floored at 64 KiB so a
/// tiny pool still makes progress and capped at 1 GiB so a huge pool grows
/// linearly instead of overshooting. A pool undersized by a factor D
/// therefore converges in O(log D) restarts. core/invariants.hpp proves
/// the three regimes.
[[nodiscard]] constexpr std::size_t restart_growth_step(std::size_t capacity) {
  return std::clamp(capacity, std::size_t{64} << 10, std::size_t{1} << 30);
}

/// The chunk pool (§3.2.4, §3.5): charged accounting against a hard
/// capacity, and the storage chunks live in.
///
/// Accounting: `try_allocate` mirrors the GPU's atomic-counter increment
/// against the capacity, charging each chunk its `Chunk::byte_size()`.
/// A failed `try_allocate` is the *only* trigger of the paper's §3.5
/// restart protocol. The pool distinguishes its two causes —
/// `capacity_denials()` counts genuine exhaustion, `injected_denials()`
/// counts refusals by the installed `AllocationPolicy` — while
/// `alloc_attempts()` numbers every attempt, which is the index space the
/// fault sweeps in src/fault enumerate. Per-run roll-ups land on
/// `SpgemmStats`: `restarts` counts host round trips (one round may relaunch
/// many blocks) and `pool_denials` the denied block launches of either
/// cause; nonzero `pool_denials` with zero `restarts` is impossible
/// (DESIGN.md §8).
///
/// Storage: a list of kPoolRegionBytes regions behind one atomic bump
/// pointer. `place` hands out a charged chunk's placement; the block whose
/// bump first lands in a region takes it from the `RegionSource` (or
/// allocates it), so a pool holds only the regions its chunks were written
/// into, and
/// a restart's growth becomes another region once the relaunched blocks
/// write past the last one. The charge alone decides denials: a denied
/// allocation places nothing, and running out of placed room only adds a
/// region. Regions go back to the source (or are freed) when the pool is
/// destroyed, so the chunks' spans live exactly as long as the pool.
class ChunkPool {
 public:
  explicit ChunkPool(std::size_t capacity_bytes,
                     RegionSource* regions = nullptr)
      : capacity_(capacity_bytes), source_(regions) {}
  ~ChunkPool();

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  /// Reserve `bytes`; false means the pool is exhausted (restart needed) —
  /// either genuinely or because the installed policy denied the attempt.
  bool try_allocate(std::size_t bytes) {
    // mo: pure counter ticket; nothing is published under this index.
    const std::uint64_t index =
        alloc_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (AllocationPolicy* policy = policy_) {
      AllocationRequest req;
      req.index = index;
      // mo: advisory snapshots for the policy; staleness only shifts which
      // mo: attempt a threshold policy denies, never correctness.
      req.used = used_.load(std::memory_order_relaxed);
      req.capacity = capacity_.load(std::memory_order_relaxed);  // mo: ditto
      req.bytes = bytes;
      if (!policy->allow(req)) {
        // mo: stat counter, read after the run's blocks join.
        injected_denials_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    // mo: advisory bound; a stale read only misorders a denial vs. a grow.
    const std::size_t cap = capacity_.load(std::memory_order_relaxed);
    // mo: the RMW itself is the reservation — atomicity alone decides who
    // mo: overshoots; chunk payloads are handed over via the scheduler's
    // mo: joins, not through this counter.
    const std::size_t prev = used_.fetch_add(bytes, std::memory_order_relaxed);
    if (prev + bytes > cap) {
      // mo: rollback of the same counter; same reasoning as the reserve.
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      // mo: stat counter, read after the run's blocks join.
      capacity_denials_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Storage for a materialized chunk of `row_count` rows and `entries`
  /// entries, laid out by `ChunkLayout`. Call it only for a chunk whose
  /// charge `try_allocate` granted. Never fails for lack of room: a
  /// placement past the last region adds one. Safe from concurrent blocks.
  template <class T>
  [[nodiscard]] ChunkSlot<T> place(std::size_t row_count,
                                   std::size_t entries) {
    const ChunkLayout<T> layout{row_count, entries};
    std::byte* p = place_bytes(layout.bytes());
    // Array placement-new starts the arrays' lifetimes in the raw region
    // (which may hold another job's chunks); it writes nothing, as the
    // element types are trivial.
    ChunkSlot<T> slot;
    slot.rows = {::new (p) index_t[row_count], row_count};
    slot.row_offsets = {::new (p + layout.offsets_at()) index_t[row_count + 1],
                        row_count + 1};
    slot.cols = {::new (p + layout.cols_at()) index_t[entries], entries};
    slot.vals = {::new (p + layout.vals_at()) T[entries], entries};
    return slot;
  }

  /// Expand the pool ("as easy as adding another memory region").
  void grow(std::size_t bytes) {
    // mo: called between rounds (no concurrent blocks); a late observer
    // mo: merely retries via the restart protocol.
    capacity_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Install (or clear, with nullptr) the fault-injection hook. Non-owning;
  /// the policy must outlive every `try_allocate`. Install before handing
  /// the pool to concurrent blocks — the pointer itself is not synchronized
  /// against in-flight allocations.
  void set_policy(AllocationPolicy* policy) { policy_ = policy; }
  [[nodiscard]] AllocationPolicy* policy() const { return policy_; }

  // mo: every accessor below reads a monotonic counter for reporting; the
  // mo: engine only consumes them after its blocks have joined.
  [[nodiscard]] std::size_t used() const {
    return used_.load(std::memory_order_relaxed);  // mo: see above
  }
  [[nodiscard]] std::size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);  // mo: see above
  }
  /// try_allocate calls so far, successful or not — the injection-point
  /// space a fault sweep enumerates.
  [[nodiscard]] std::uint64_t alloc_attempts() const {
    return alloc_attempts_.load(std::memory_order_relaxed);  // mo: see above
  }
  /// Denials issued by the installed policy (never by real exhaustion).
  [[nodiscard]] std::uint64_t injected_denials() const {
    return injected_denials_.load(std::memory_order_relaxed);  // mo: above
  }
  /// Denials from genuine capacity exhaustion.
  [[nodiscard]] std::uint64_t capacity_denials() const {
    return capacity_denials_.load(std::memory_order_relaxed);  // mo: above
  }
  /// Storage regions the pool holds. Read after the blocks join.
  [[nodiscard]] std::size_t regions() const;

  /// Regions one pool may hold: 64 GiB of chunks, far past any product
  /// that fits in memory. `place` throws std::length_error beyond it.
  static constexpr std::size_t kMaxRegions = 4096;

 private:
  /// Bump `bytes` (a multiple of kPlacementAlign) over the concatenated
  /// regions. A placement that would straddle a region's end is dropped
  /// and bumped again, so it lands at the start of a later region.
  std::byte* place_bytes(std::size_t bytes);
  /// Region `i`, taken or allocated by the first block that lands in it;
  /// blocks landing in it meanwhile wait for that one region.
  std::byte* region(std::size_t i);
  /// The highest region index a placement can have reached.
  [[nodiscard]] std::size_t region_bound() const;

  std::atomic<std::size_t> capacity_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> alloc_attempts_{0};
  std::atomic<std::uint64_t> injected_denials_{0};
  std::atomic<std::uint64_t> capacity_denials_{0};
  AllocationPolicy* policy_ = nullptr;

  RegionSource* source_;
  /// Placement bytes bumped so far over the concatenated regions.
  std::atomic<std::size_t> cursor_{0};
  std::array<std::atomic<std::byte*>, kMaxRegions> regions_{};
};

/// A row's reference to part of a chunk, used for merge detection and the
/// final chunk copy. Segments of one row are combined in ChunkOrder.
struct RowSegment {
  std::size_t chunk = 0;   ///< index into the global chunk vector
  index_t begin = 0;       ///< first entry of the row inside the chunk
  index_t length = 0;      ///< entries of the row inside the chunk
};

/// Every row's segments in one flat array, CSR-style: row r's are
/// `of(r)`, in the order of the chunks they were built from. Built by
/// count, prefix and fill, so no row allocates a list of its own.
class SegmentTable {
 public:
  /// Index the rows of `chunks[first, chunks.size())` over `rows` output
  /// rows. Chunk indices in the segments are global (into `chunks`).
  template <class T>
  void build(std::span<const Chunk<T>> chunks, std::size_t first,
             index_t rows) {
    start_.assign(usize(rows) + 1, 0);
    for (std::size_t ci = first; ci < chunks.size(); ++ci)
      for (const index_t r : chunks[ci].rows) ++start_[usize(r) + 1];
    for (std::size_t r = 1; r < start_.size(); ++r) start_[r] += start_[r - 1];
    segments_.resize(start_.back());
    // Fill with start_[r] as row r's cursor; afterwards it holds row r's
    // end, i.e. row r+1's start, so shift the array back by one.
    for (std::size_t ci = first; ci < chunks.size(); ++ci) {
      const Chunk<T>& chunk = chunks[ci];
      for (std::size_t k = 0; k < chunk.rows.size(); ++k)
        segments_[start_[usize(chunk.rows[k])]++] = {
            ci, chunk.row_offsets[k],
            chunk.row_offsets[k + 1] - chunk.row_offsets[k]};
    }
    std::copy_backward(start_.begin(), start_.end() - 1, start_.end());
    start_[0] = 0;
  }

  [[nodiscard]] std::span<const RowSegment> of(index_t row) const {
    return std::span<const RowSegment>(segments_)
        .subspan(start_[usize(row)],
                 start_[usize(row) + 1] - start_[usize(row)]);
  }

 private:
  std::vector<std::size_t> start_;  ///< rows + 1 prefix offsets
  std::vector<RowSegment> segments_;
};

}  // namespace acs
