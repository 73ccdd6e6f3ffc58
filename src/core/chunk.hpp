#pragma once
/// \file chunk.hpp
/// Chunk-based storage of partial results of C (Section 3.2.4). Each chunk
/// holds the column ids and values of a contiguous set of output rows
/// produced by one block, plus the per-row boundaries needed for the final
/// copy. Long rows of B are represented by pointer chunks that reference
/// the row of B and carry the scaling factor from A (Section 3.4). The pool
/// tracks allocation against a fixed capacity; exhaustion triggers the
/// restart mechanism.

#include <atomic>
#include <cstdint>
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

template <class T>
struct Chunk {
  /// Global row ids covered, ascending. Only the first and last can be
  /// shared with other chunks; interior rows are complete.
  std::vector<index_t> rows;
  /// Entry offsets per covered row: row i owns [row_offsets[i],
  /// row_offsets[i+1]) of cols/vals. Size rows.size()+1.
  std::vector<index_t> row_offsets;
  std::vector<index_t> cols;
  std::vector<T> vals;
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

  /// Bytes charged against the chunk pool: header (start row, counts, list
  /// link — 32 B as in the paper's layout), per-row boundaries, and the
  /// column/value payload. Pointer chunks cost only the fixed 48 B record.
  [[nodiscard]] constexpr std::size_t byte_size() const {
    if (is_long_row) return kPointerChunkBytes;
    return kChunkHeaderBytes + rows.size() * sizeof(index_t) +
           cols.size() * (sizeof(index_t) + sizeof(T));
  }
};

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

/// Memory-accounting view of the chunk pool: a bump allocator with a hard
/// capacity. `try_allocate` mirrors the GPU's atomic-counter increment; the
/// actual storage lives in the Chunk objects (the simulator does not need
/// the single flat arena, only its accounting behaviour).
///
/// Restart accounting: a failed `try_allocate` is the *only* trigger of the
/// paper's §3.5 restart protocol. The pool distinguishes its two causes —
/// `capacity_denials()` counts genuine exhaustion, `injected_denials()`
/// counts refusals by the installed `AllocationPolicy` — while
/// `alloc_attempts()` numbers every attempt, which is the index space the
/// fault sweeps in src/fault enumerate. Per-run roll-ups land on
/// `SpgemmStats`: `restarts` counts host round trips (one round may relaunch
/// many blocks) and `pool_denials` the denied block launches of either
/// cause; nonzero `pool_denials` with zero `restarts` is impossible
/// (DESIGN.md §8).
class ChunkPool {
 public:
  explicit ChunkPool(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

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

 private:
  std::atomic<std::size_t> capacity_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> alloc_attempts_{0};
  std::atomic<std::uint64_t> injected_denials_{0};
  std::atomic<std::uint64_t> capacity_denials_{0};
  AllocationPolicy* policy_ = nullptr;
};

/// A row's reference to part of a chunk, used for merge detection and the
/// final chunk copy. Segments of one row are combined in ChunkOrder.
struct RowSegment {
  std::size_t chunk = 0;   ///< index into the global chunk vector
  index_t begin = 0;       ///< first entry of the row inside the chunk
  index_t length = 0;      ///< entries of the row inside the chunk
  ChunkOrder order;
};

}  // namespace acs
