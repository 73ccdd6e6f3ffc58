#pragma once
/// \file plan_cache.hpp
/// LRU cache of SpGEMM execution plans keyed by structure fingerprint.
/// Repeated-pattern workloads (AMG Galerkin chains, iterative graph
/// kernels) hit the cache and skip global load balancing and the memory
/// estimate; the learned pool size makes warm runs restart-free. Lookups
/// copy the plan out and `store` writes the refreshed plan back, so two
/// jobs with the same pattern can run concurrently without serializing on
/// a shared plan object. Thread-safe; all operations take one internal
/// mutex (plans are small — a blockRowStarts table plus a few counters).

#include <cstddef>
#include <list>
#include <unordered_map>

#include "core/plan.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/fingerprint.hpp"

namespace acs::runtime {

class PlanCache {
 public:
  /// `capacity` = maximum cached plans; at least 1.
  explicit PlanCache(std::size_t capacity = 64);

  /// Copy the cached plan for `key` into `plan` and mark the entry
  /// most-recently-used. Returns false (and counts a miss) when absent.
  bool lookup(const Fingerprint& key, SpgemmPlan& plan) ACS_EXCLUDES(m_);

  /// Insert or refresh the plan for `key` (moves `plan` in), evicting the
  /// least-recently-used entry beyond capacity.
  void store(const Fingerprint& key, SpgemmPlan plan) ACS_EXCLUDES(m_);

  struct Counters {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t refreshes = 0;
    std::size_t evictions = 0;

    [[nodiscard]] double hit_rate() const {
      const std::size_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  [[nodiscard]] Counters counters() const ACS_EXCLUDES(m_);
  [[nodiscard]] std::size_t size() const ACS_EXCLUDES(m_);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear() ACS_EXCLUDES(m_);

 private:
  struct Entry {
    Fingerprint key;
    SpgemmPlan plan;
  };

  mutable acs::Mutex m_;
  std::size_t capacity_;  ///< const after construction
  /// Most-recently-used at the front.
  std::list<Entry> lru_ ACS_GUARDED_BY(m_);
  std::unordered_map<Fingerprint, std::list<Entry>::iterator, FingerprintHash>
      index_ ACS_GUARDED_BY(m_);
  Counters counters_ ACS_GUARDED_BY(m_);
};

}  // namespace acs::runtime
