#include "runtime/plan_cache.hpp"

#include <algorithm>
#include <utility>

namespace acs::runtime {

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

bool PlanCache::lookup(const Fingerprint& key, SpgemmPlan& plan) {
  acs::MutexLock lock(m_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  plan = it->second->plan;
  ++counters_.hits;
  return true;
}

void PlanCache::store(const Fingerprint& key, SpgemmPlan plan) {
  acs::MutexLock lock(m_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->plan = std::move(plan);
    ++counters_.refreshes;
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_.emplace(key, lru_.begin());
  ++counters_.insertions;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

PlanCache::Counters PlanCache::counters() const {
  acs::MutexLock lock(m_);
  return counters_;
}

std::size_t PlanCache::size() const {
  acs::MutexLock lock(m_);
  return lru_.size();
}

void PlanCache::clear() {
  acs::MutexLock lock(m_);
  lru_.clear();
  index_.clear();
  counters_ = Counters{};
}

}  // namespace acs::runtime
