#pragma once
/// \file thread_annotations.hpp
/// Compile-time concurrency contracts (DESIGN.md §14). Two pieces:
///
///   1. `ACS_*` capability-annotation macros wrapping Clang's thread-safety
///      attributes (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
///      Under Clang with the attributes available they expand to the real
///      `__attribute__((...))` forms and `-Wthread-safety` turns the locking
///      discipline into a per-build proof; on every other compiler they
///      expand to nothing, so GCC builds are unaffected.
///
///   2. `acs::Mutex` / `acs::MutexLock` / `acs::CondVar`: thin annotated
///      wrappers over `std::mutex` / `std::unique_lock` /
///      `std::condition_variable`. The std types carry no annotations, so
///      guarded state can only be proved against a capability-bearing type;
///      these wrappers are the project's only sanctioned lock spelling
///      (enforced by the `raii-locks-only` lint rule — no naked
///      `.lock()`/`.unlock()` outside this file).
///
/// Conventions the analysis (and the `lock-order` lint rule) relies on:
///   * every mutex member is an `acs::Mutex` and at least one member is
///     declared `ACS_GUARDED_BY` it (`mutex-annotated` lint rule);
///   * condition waits are explicit predicate loops in the annotated caller
///     (`while (!pred) cv.wait(lock);`) — a predicate lambda would be
///     analyzed as a separate function with an empty capability set and
///     false-positive on every guarded read;
///   * functions called with a lock held are annotated `ACS_REQUIRES`,
///     functions that take a lock the caller must not hold `ACS_EXCLUDES`;
///   * the acquires-while-holding order over all mutexes is ranked in
///     tools/lint/lock_order.toml and checked acyclic by the linter.

#include <condition_variable>
#include <mutex>

// clang-format off
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability) && __has_attribute(guarded_by) && \
    __has_attribute(acquire_capability)
#define ACS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ACS_THREAD_ANNOTATION
#define ACS_THREAD_ANNOTATION(x)  // no-op off Clang
#endif
// clang-format on

/// Type is a capability (a lock); instances can be held/acquired/released.
#define ACS_CAPABILITY(x) ACS_THREAD_ANNOTATION(capability(x))
/// RAII type that acquires a capability in its constructor and releases it
/// in its destructor.
#define ACS_SCOPED_CAPABILITY ACS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the named capability.
#define ACS_GUARDED_BY(x) ACS_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named capability.
#define ACS_PT_GUARDED_BY(x) ACS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the capability held on entry (and does not release it).
#define ACS_REQUIRES(...) ACS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held (it acquires it).
#define ACS_EXCLUDES(...) ACS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function acquires the capability (held on return, not on entry).
#define ACS_ACQUIRE(...) ACS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on return).
#define ACS_RELEASE(...) ACS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define ACS_TRY_ACQUIRE(...) \
  ACS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Assert (at runtime, to the analysis) that the capability is held.
#define ACS_ASSERT_CAPABILITY(x) ACS_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the named capability.
#define ACS_RETURN_CAPABILITY(x) ACS_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: function body is excluded from the analysis. Every use
/// must carry a `// lint: allow(...)` justification.
#define ACS_NO_THREAD_SAFETY_ANALYSIS \
  ACS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace acs {

class CondVar;

/// Annotated standard mutex. Prefer `MutexLock` over calling
/// `lock()`/`unlock()` directly (the `raii-locks-only` rule bans naked
/// lock calls outside this header).
class ACS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACS_ACQUIRE() { m_.lock(); }
  void unlock() ACS_RELEASE() { m_.unlock(); }
  bool try_lock() ACS_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex m_;
};

/// RAII scoped lock over an `acs::Mutex`; the only sanctioned way to hold
/// one. Also the handle `CondVar::wait` parks on.
class ACS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACS_ACQUIRE(mu) : lock_(mu.m_) {}
  ~MutexLock() ACS_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable for `acs::Mutex`. Waits atomically release the lock
/// and re-acquire it before returning, so from the analysis' point of view
/// the capability is held across the call — which is exactly the guarantee
/// guarded reads in the caller's predicate loop need. Always wait in a
/// predicate loop:
/// \code
///   acs::MutexLock lock(m_);
///   while (!done_) cv_.wait(lock);
/// \endcode
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Park until notified (spurious wakeups possible — loop on the
  /// predicate). `lock` must hold the mutex guarding the predicate state.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace acs
