#pragma once
/// \file policies.hpp
/// Deterministic chunk-pool fault injectors (ISSUE 3 tentpole). Each policy
/// implements the `acs::AllocationPolicy` hook consulted by
/// `ChunkPool::try_allocate` (core/chunk.hpp): returning false makes the
/// attempt fail exactly like real pool exhaustion, driving the affected
/// block into the paper's §3.5 restart protocol. Because denial decisions
/// key off the pool's global attempt index (and, for the byte-budget
/// schedule, cumulative granted bytes), they are reproducible run-to-run
/// and — except for which attempt carries which index — independent of
/// scheduler interleaving. Install via `Config::alloc_policy`: on one
/// multiplication, or per engine job on the Config it is submitted with
/// (the policy must outlive the job).
///
/// All policies are safe to call from concurrent scheduler threads and
/// count their own denials for test assertions.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/chunk.hpp"
#include "core/thread_annotations.hpp"

namespace acs::fault {

/// Allows every attempt while counting them — the clean-run pass the
/// injection-point enumerator (sweep.hpp) uses to size its sweep.
class CountingPolicy final : public AllocationPolicy {
 public:
  bool allow(const AllocationRequest& request) override {
    // mo: monotonic tallies; read for reporting after the run joins.
    attempts_.fetch_add(1, std::memory_order_relaxed);
    // mo: same as above.
    bytes_requested_.fetch_add(request.bytes, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] std::uint64_t attempts() const {
    return attempts_.load(std::memory_order_relaxed);  // mo: post-join read
  }
  [[nodiscard]] std::uint64_t bytes_requested() const {
    return bytes_requested_.load(std::memory_order_relaxed);  // mo: post-join
  }

 private:
  std::atomic<std::uint64_t> attempts_{0};
  std::atomic<std::uint64_t> bytes_requested_{0};
};

/// Denies exactly allocation attempt `n` (0-based), allowing everything
/// else — the sweep's "deny exactly allocation i" probe. The replayed
/// allocation after the restart draws a fresh index and goes through.
class DenyNthPolicy final : public AllocationPolicy {
 public:
  explicit DenyNthPolicy(std::uint64_t n) : n_(n) {}

  bool allow(const AllocationRequest& request) override {
    if (request.index != n_) return true;
    // mo: monotonic tally; read for reporting after the run joins.
    denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  [[nodiscard]] std::uint64_t denials() const {
    return denials_.load(std::memory_order_relaxed);  // mo: post-join read
  }

 private:
  const std::uint64_t n_;
  std::atomic<std::uint64_t> denials_{0};
};

/// Denies every K-th attempt: indices k-1, 2k-1, ... (shifted by `offset`),
/// i.e. periodic pressure that keeps forcing restarts as the run proceeds.
class DenyEveryKthPolicy final : public AllocationPolicy {
 public:
  explicit DenyEveryKthPolicy(std::uint64_t k, std::uint64_t offset = 0)
      : k_(k == 0 ? 1 : k), offset_(offset) {}

  bool allow(const AllocationRequest& request) override {
    if ((request.index + 1 + offset_) % k_ != 0) return true;
    // mo: monotonic tally; read for reporting after the run joins.
    denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  [[nodiscard]] std::uint64_t denials() const {
    return denials_.load(std::memory_order_relaxed);  // mo: post-join read
  }

 private:
  const std::uint64_t k_;
  const std::uint64_t offset_;
  std::atomic<std::uint64_t> denials_{0};
};

/// Denies each attempt independently with probability `deny_rate`, decided
/// by a splitmix64 hash of (seed, attempt index): per-index deterministic,
/// so two runs with the same seed deny the same attempt numbers regardless
/// of which thread issues them.
class SeededProbabilisticPolicy final : public AllocationPolicy {
 public:
  SeededProbabilisticPolicy(std::uint64_t seed, double deny_rate);

  bool allow(const AllocationRequest& request) override;

  [[nodiscard]] std::uint64_t denials() const {
    return denials_.load(std::memory_order_relaxed);  // mo: post-join read
  }

 private:
  const std::uint64_t seed_;
  const std::uint64_t threshold_;  ///< deny iff hash < threshold
  std::atomic<std::uint64_t> denials_{0};
};

/// Byte-budget schedule: behaves like a pool whose true capacity is
/// `budgets[0]` bytes — the first attempt that would push the cumulative
/// granted bytes past the current budget is denied, and the schedule
/// advances to the next (larger) budget, mirroring one resize-and-restart
/// round. Past the final budget every attempt is allowed. This reproduces
/// specific exhaustion *sizes* (e.g. "deny once 1 MB of chunks exist")
/// independent of how many allocations got there.
class ByteBudgetPolicy final : public AllocationPolicy {
 public:
  explicit ByteBudgetPolicy(std::vector<std::size_t> budgets);

  bool allow(const AllocationRequest& request) override ACS_EXCLUDES(m_);

  [[nodiscard]] std::uint64_t denials() const ACS_EXCLUDES(m_);
  /// Budgets already exhausted (== denials issued, one per stage).
  [[nodiscard]] std::size_t stages_passed() const ACS_EXCLUDES(m_);

 private:
  const std::vector<std::size_t> budgets_;
  mutable acs::Mutex m_;
  std::size_t granted_ ACS_GUARDED_BY(m_) = 0;
  std::size_t stage_ ACS_GUARDED_BY(m_) = 0;
};

}  // namespace acs::fault
