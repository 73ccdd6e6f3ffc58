#pragma once
/// \file engine.hpp
/// Batched, plan-caching SpGEMM execution engine. An Engine owns a job
/// queue and a worker pool: `submit` enqueues one multiplication C = A·B
/// and returns a future-like JobHandle, `multiply_batch` runs a whole batch
/// and collects the results. Every job goes through the plan cache (reusing
/// global load balancing and learned pool sizes across identical sparsity
/// patterns) and the pool arena (recycling chunk-pool capacity instead of
/// allocating per call), and each engine worker keeps one warm
/// BlockScheduler across jobs.
///
/// Determinism: each job individually keeps the DESIGN.md §6 contract —
/// its output is bit-identical for any engine worker count, any plan-cache
/// state and any pool-arena state, because plans and recycled pools only
/// shortcut setup work (the restart/pool-size independence of the core
/// pipeline is property-tested). Per-job *statistics* (restarts, pool
/// bytes) may differ between cold and warm runs; results never do.
///
/// Example:
/// \code
///   acs::runtime::Engine<double> engine({.workers = 4});
///   auto h1 = engine.submit(a, p);
///   auto h2 = engine.submit(r, ap);
///   acs::Csr<double> ap2 = h1.result().c;   // blocks until done
///   double rate = engine.plan_counters().hit_rate();
/// \endcode

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "arch/arch_id.hpp"
#include "core/acspgemm.hpp"
#include "core/chunk.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/pool_arena.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace acs::runtime {

struct EngineConfig {
  /// Worker threads executing jobs; 0 = std::thread::hardware_concurrency().
  /// Each job runs on one worker (its simulated blocks may additionally use
  /// `Config::scheduler_threads` scheduler threads).
  unsigned workers = 1;
  /// Maximum plans kept by the LRU plan cache.
  std::size_t plan_cache_capacity = 64;
  /// Backend the engine runs its jobs on (src/arch, docs/BACKENDS.md).
  /// The default `kSimTitanXp` leaves each submitted Config untouched, so
  /// a job runs on the backend its own `Config::arch` names. Any other
  /// arch replaces every job's `Config::arch` at submission
  /// (`apply_arch`). Either way the plan cache is keyed by the arch the
  /// job runs on, so plans never replay across backends.
  arch::ArchId arch = arch::ArchId::kSimTitanXp;
  /// Host threads driving each job's blocks when `arch` is
  /// `ArchId::kNativeCpu` (applied as `Config::scheduler_threads`); 0 = one
  /// per hardware thread. Ignored by the other archs, where the submitted
  /// thread count stands.
  unsigned native_threads = 0;
  /// Attach an engine-owned TraceSession to every job whose Config does not
  /// already carry one. The session is returned on `JobResult::trace` (stage
  /// spans + counters, exportable via trace/exporters.hpp). Off by default:
  /// tracing is cheap but not free, and throughput benches gate on the
  /// untraced path.
  bool collect_job_traces = false;
  /// Per-job fault injection: when set, called with the job's 0-based
  /// submission sequence number to build the chunk-pool `AllocationPolicy`
  /// installed on that job (see src/fault/policies.hpp for the deterministic
  /// injectors). The engine owns the returned policy for the job's duration.
  /// A policy the caller already placed on the job's own Config wins; a null
  /// return injects nothing for that job. Injected denials surface as
  /// restarts / pool denials on the job's `JobResult::stats` and the
  /// engine-wide `Engine::metrics()` — results stay bit-identical (the
  /// determinism contract extends to injected exhaustion).
  std::function<std::unique_ptr<AllocationPolicy>(std::size_t)>
      make_alloc_policy;
};

/// Overlay `ecfg`'s backend onto a job Config: the identity for the
/// default arch (kSimTitanXp — the submitted Config, its own `arch`
/// included, runs verbatim); for every other arch, `cfg.arch` becomes the
/// engine's, and NativeCpu also sets the scheduler thread count from
/// `EngineConfig::native_threads` (0 = one per hardware thread).
/// `Engine::submit` applies this to every job; serving layers that price
/// or tune jobs before submission (src/serve) call it themselves so their
/// predictions see the device the job will run on.
void apply_arch(Config& cfg, const EngineConfig& ecfg);

/// Aggregate engine job counts (per-job numbers such as restarts roll up
/// in `Engine::metrics()`; plan and pool details come from
/// `Engine::plan_counters()` / `Engine::arena_counters()`).
struct EngineStats {
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;  ///< includes failed jobs
  std::size_t jobs_failed = 0;
};

template <class T>
struct JobResult {
  Csr<T> c;
  SpgemmStats stats;
  bool plan_hit = false;             ///< plan served from the cache
  std::size_t pool_reused_bytes = 0; ///< pool request covered by the arena
  /// Engine-owned trace session when `EngineConfig::collect_job_traces` is
  /// set and the job's Config had no session of its own; null otherwise.
  std::shared_ptr<trace::TraceSession> trace;
  /// Set when the job failed; `c`/`stats` are then default-valued.
  /// `JobHandle::result()` rethrows it, `multiply_batch` returns it in-place
  /// so one bad pair cannot abandon its siblings' results.
  std::exception_ptr error;

  [[nodiscard]] bool failed() const { return error != nullptr; }
};

namespace detail {

template <class T>
struct JobState {
  Csr<T> a;
  Csr<T> b;
  Config cfg;
  std::size_t seq = 0;  ///< submission sequence number (fault injection key)
  /// Completion hook (may be empty). Invoked exactly once on the worker
  /// thread, after the job ran but *before* the result is published to the
  /// handle — the callback has the JobResult to itself, no handle waiter
  /// can observe or move it concurrently. See Engine::submit overload.
  std::function<void(JobResult<T>&)> on_complete;

  acs::Mutex job_m;
  acs::CondVar cv;
  bool done ACS_GUARDED_BY(job_m) = false;
  JobResult<T> result ACS_GUARDED_BY(job_m);
  std::exception_ptr error ACS_GUARDED_BY(job_m);

  /// Publish the job's outcome. Idempotent: the first completion wins, so a
  /// worker that fails while publishing can be completed again by its
  /// work_loop safety net without clobbering an already-delivered result.
  void complete(JobResult<T> r, std::exception_ptr e) ACS_EXCLUDES(job_m) {
    {
      acs::MutexLock lock(job_m);
      if (done) return;
      result = std::move(r);
      error = e;
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

template <class T>
class Engine;

/// Future-like handle to a submitted job. Cheap to copy; all copies refer
/// to the same result.
template <class T>
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  [[nodiscard]] bool ready() const {
    acs::MutexLock lock(state_->job_m);
    return state_->done;
  }

  void wait() const {
    acs::MutexLock lock(state_->job_m);
    while (!state_->done) state_->cv.wait(lock);
  }

  /// Block until the job finishes; rethrows the job's exception (e.g.
  /// dimension mismatch) if it failed. The reference stays valid as long as
  /// any handle to the job exists.
  [[nodiscard]] JobResult<T>& result() const {
    wait();
    // Relocking after wait() keeps the guarded reads provable; once `done`
    // is set the state is immutable (complete() is first-writer-wins), so
    // the returned reference stays safe to use unlocked.
    acs::MutexLock lock(state_->job_m);
    if (state_->error) std::rethrow_exception(state_->error);
    return state_->result;
  }

 private:
  friend class Engine<T>;
  explicit JobHandle(std::shared_ptr<detail::JobState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState<T>> state_;
};

template <class T>
class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  /// Drains the queue (waits for every submitted job) before stopping.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueue C = A·B. Operands are taken by value: move them in to avoid
  /// the copy, or pass lvalues to keep the caller's matrices.
  JobHandle<T> submit(Csr<T> a, Csr<T> b, Config cfg = {});

  /// Non-blocking completion hook: like `submit`, but `on_complete` is
  /// invoked on the worker thread once the job finishes (success or
  /// failure — check `JobResult::failed()`), before the result is
  /// published to the returned handle. The callback may mutate the result;
  /// what it leaves behind is what handle waiters see. It must not block
  /// on this job's own handle (the result is not published yet) and should
  /// stay short — the worker cannot pick up its next job until it returns.
  /// A throwing callback fails the job with its exception. Serving layers
  /// (src/serve) use this to chain dispatch without a waiter thread.
  JobHandle<T> submit(Csr<T> a, Csr<T> b, Config cfg,
                      std::function<void(JobResult<T>&)> on_complete);

  /// Submit every pair and wait for all of them; results are returned in
  /// submission order. A failing job does not throw and does not disturb its
  /// siblings: its entry carries the exception on `JobResult::error` (check
  /// `failed()`) while every other entry holds its normal result.
  std::vector<JobResult<T>> multiply_batch(
      const std::vector<std::pair<Csr<T>, Csr<T>>>& pairs,
      const Config& cfg = {});

  /// Block until every submitted job has completed.
  void wait_all() ACS_EXCLUDES(m_);

  [[nodiscard]] EngineStats stats() const ACS_EXCLUDES(m_);
  /// Rolling metrics over every successfully completed job: the sum of
  /// `to_metrics_snapshot(JobResult::stats)` (stage sim-time totals,
  /// restarts, pool high-water marks) plus the counters of engine-owned
  /// trace sessions (`collect_job_traces`).
  [[nodiscard]] trace::MetricsSnapshot metrics() const ACS_EXCLUDES(m_);
  [[nodiscard]] PlanCache::Counters plan_counters() const {
    return cache_.counters();
  }
  [[nodiscard]] PoolArena::Counters arena_counters() const {
    return arena_.counters();
  }
  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(workers_.size());
  }
  /// Jobs queued but not yet picked up by a worker (introspection for
  /// backpressure layers; racy by nature — a snapshot, not a fence).
  [[nodiscard]] std::size_t queue_depth() const ACS_EXCLUDES(m_) {
    acs::MutexLock lock(m_);
    return queue_.size();
  }
  /// Jobs submitted and not yet completed (queued + executing).
  [[nodiscard]] std::size_t in_flight() const ACS_EXCLUDES(m_) {
    acs::MutexLock lock(m_);
    return in_flight_;
  }

 private:
  /// Per-worker reusable state: one warm BlockScheduler, rebuilt only when
  /// a job requests a different scheduler thread count.
  struct WorkerContext {
    std::unique_ptr<sim::BlockScheduler> scheduler;
    unsigned scheduler_threads = 0;
  };

  void work_loop() ACS_EXCLUDES(m_);
  void run_job(detail::JobState<T>& job, WorkerContext& ctx)
      ACS_EXCLUDES(m_);

  EngineConfig config_;
  PlanCache cache_;
  PoolArena arena_;

  mutable acs::Mutex m_;
  acs::CondVar work_cv_;
  acs::CondVar idle_cv_;
  std::deque<std::shared_ptr<detail::JobState<T>>> queue_ ACS_GUARDED_BY(m_);
  std::size_t in_flight_ ACS_GUARDED_BY(m_) = 0;  ///< queued + executing
  bool stop_ ACS_GUARDED_BY(m_) = false;
  EngineStats stats_ ACS_GUARDED_BY(m_);
  trace::MetricsSnapshot metrics_ ACS_GUARDED_BY(m_);

  std::vector<std::thread> workers_;
};

extern template class Engine<float>;
extern template class Engine<double>;

}  // namespace acs::runtime
