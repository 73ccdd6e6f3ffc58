#pragma once
/// \file completion.hpp
/// A value published once and waited on by any number of handles: the
/// shared state behind `runtime::JobHandle` and `serve::ServeHandle`.
///
/// The first `complete` wins and later ones are no-ops, so a worker's
/// safety net may publish a failure for a job that already delivered its
/// result without clobbering it. The Completion never writes the value
/// again after publication, so the reference `wait` returns stays valid,
/// and readable without the lock, for as long as the Completion lives.
/// Handle holders share that one value: a caller that moves out of it
/// (`multiply_batch` does) leaves the moved-from value to every other
/// handle.

#include <utility>

#include "core/thread_annotations.hpp"

namespace acs::runtime {

template <class R>
class Completion {
 public:
  Completion() = default;
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  /// Publish `value` and wake every waiter. Returns false, dropping
  /// `value`, when a value was already published.
  bool complete(R value) ACS_EXCLUDES(m_) {
    {
      acs::MutexLock lock(m_);
      if (done_) return false;
      value_ = std::move(value);
      done_ = true;
    }
    cv_.notify_all();
    return true;
  }

  [[nodiscard]] bool ready() const ACS_EXCLUDES(m_) {
    acs::MutexLock lock(m_);
    return done_;
  }

  /// Block until a value is published, then return it.
  R& wait() ACS_EXCLUDES(m_) {
    acs::MutexLock lock(m_);
    while (!done_) cv_.wait(lock);
    return value_;
  }

 private:
  mutable acs::Mutex m_;
  acs::CondVar cv_;
  bool done_ ACS_GUARDED_BY(m_) = false;
  R value_ ACS_GUARDED_BY(m_);
};

}  // namespace acs::runtime
