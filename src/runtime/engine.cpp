#include "runtime/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "arch/arch.hpp"
#include "runtime/fingerprint.hpp"

namespace acs::runtime {

void apply_arch(Config& cfg, const EngineConfig& ecfg) {
  if (ecfg.arch == arch::ArchId::kSimTitanXp) return;
  const arch::ArchInfo& info = arch::arch_info(ecfg.arch);
  cfg.arch = info.id;
  if (info.exec == arch::ExecKind::kNative) {
    unsigned n = ecfg.native_threads ? ecfg.native_threads
                                     : info.default_scheduler_threads;
    if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
    cfg.scheduler_threads = n;
  }
}

template <class T>
Engine<T>::Engine(EngineConfig config)
    : config_(std::move(config)), cache_(config_.plan_cache_capacity) {
  unsigned n = config_.workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this] { work_loop(); });
}

template <class T>
Engine<T>::~Engine() {
  wait_all();
  {
    acs::MutexLock lock(m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

template <class T>
JobHandle<T> Engine<T>::submit(Csr<T> a, Csr<T> b, Config cfg) {
  return submit(std::move(a), std::move(b), cfg, nullptr);
}

template <class T>
JobHandle<T> Engine<T>::submit(
    Csr<T> a, Csr<T> b, Config cfg,
    std::function<void(JobResult<T>&)> on_complete) {
  // The engine's backend is overlaid at submission, so everything
  // downstream — the plan key, pool estimates, load balancing — sees the
  // backend the job actually runs on. Under the default arch this is the
  // identity and the submitted Config, its own `arch` included, runs
  // verbatim.
  apply_arch(cfg, config_);
  auto state = std::make_shared<detail::JobState<T>>();
  state->a = std::move(a);
  state->b = std::move(b);
  state->cfg = cfg;
  state->on_complete = std::move(on_complete);
  {
    acs::MutexLock lock(m_);
    state->seq = stats_.jobs_submitted;
    queue_.push_back(state);
    ++in_flight_;
    ++stats_.jobs_submitted;
  }
  work_cv_.notify_one();
  return JobHandle<T>(std::move(state));
}

template <class T>
std::vector<JobResult<T>> Engine<T>::multiply_batch(
    const std::vector<std::pair<Csr<T>, Csr<T>>>& pairs, const Config& cfg) {
  std::vector<JobHandle<T>> handles;
  handles.reserve(pairs.size());
  for (const auto& [a, b] : pairs) handles.push_back(submit(a, b, cfg));
  std::vector<JobResult<T>> results;
  results.reserve(handles.size());
  for (auto& h : handles) {
    // Not h.result(): that rethrows, which would abandon the remaining
    // handles' results. Failures travel on JobResult::error instead.
    h.wait();
    acs::MutexLock lock(h.state_->job_m);
    results.push_back(std::move(h.state_->result));
  }
  return results;
}

template <class T>
void Engine<T>::wait_all() {
  acs::MutexLock lock(m_);
  while (in_flight_ != 0) idle_cv_.wait(lock);
}

template <class T>
EngineStats Engine<T>::stats() const {
  acs::MutexLock lock(m_);
  return stats_;
}

template <class T>
trace::MetricsSnapshot Engine<T>::metrics() const {
  acs::MutexLock lock(m_);
  return metrics_;
}

template <class T>
void Engine<T>::work_loop() {
  WorkerContext ctx;
  for (;;) {
    std::shared_ptr<detail::JobState<T>> job;
    {
      acs::MutexLock lock(m_);
      while (!stop_ && queue_.empty()) work_cv_.wait(lock);
      if (queue_.empty()) return;  // stop_ set and nothing left to do
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      run_job(*job, ctx);
    } catch (...) {
      // run_job failed outside its own handler (e.g. an allocation while
      // publishing the result). Fail this job only — never the worker: an
      // escaped exception here would leave in_flight_ stuck above zero and
      // wedge wait_all() and the destructor. complete() is idempotent, so
      // re-completing a job that already published is a no-op.
      std::exception_ptr e = std::current_exception();
      {
        acs::MutexLock lock(m_);
        ++stats_.jobs_completed;
        ++stats_.jobs_failed;
      }
      JobResult<T> failed;
      failed.error = e;
      // The completion hook still fires (moved-from if run_job already
      // invoked it before throwing — then this is a no-op).
      if (auto cb = std::exchange(job->on_complete, nullptr)) {
        try {
          cb(failed);
        } catch (...) {
          // A hook that throws while reporting a failure has nothing left
          // to report to; the original error stands.
        }
      }
      job->complete(std::move(failed), e);
    }
    acs::MutexLock lock(m_);
    if (--in_flight_ == 0) idle_cv_.notify_all();
  }
}

template <class T>
void Engine<T>::run_job(detail::JobState<T>& job, WorkerContext& ctx) {
  JobResult<T> result;
  std::exception_ptr error;
  bool leased = false;
  typename PoolArena::Lease lease;
  // One session per job so its counters are the job's alone; a session the
  // caller installed on the Config is left in place (and stays theirs —
  // per-job counters cannot be split out of a shared session).
  std::shared_ptr<trace::TraceSession> session;
  if (config_.collect_job_traces && job.cfg.trace == nullptr) {
    session = std::make_shared<trace::TraceSession>();
    job.cfg.trace = session.get();
  }
  // Per-job fault injection, keyed by submission order so a given job gets
  // the same policy regardless of which worker picks it up. A policy the
  // submitter installed on the job's Config takes precedence.
  std::unique_ptr<AllocationPolicy> injected_policy;
  if (config_.make_alloc_policy && job.cfg.alloc_policy == nullptr) {
    injected_policy = config_.make_alloc_policy(job.seq);
    job.cfg.alloc_policy = injected_policy.get();
  }
  try {
    // Checked before the pool estimate, which indexes B's rows by A's
    // column ids; the pipeline validates the rest.
    if (job.a.cols != job.b.rows)
      throw std::invalid_argument(
          "engine: dimension mismatch (A.cols != B.rows)");
    const Fingerprint key = fingerprint(job.a, job.b, job.cfg.arch);
    SpgemmPlan plan;
    const bool hit = cache_.lookup(key, plan);

    std::size_t want = plan.pool_bytes
                           ? plan.pool_bytes
                           : estimate_chunk_pool_bytes(job.a, job.b, job.cfg);
    lease = arena_.acquire(want);
    leased = true;
    plan.pool_bytes = lease.bytes;

    if (!ctx.scheduler ||
        ctx.scheduler_threads != job.cfg.scheduler_threads) {
      ctx.scheduler =
          std::make_unique<sim::BlockScheduler>(job.cfg.scheduler_threads);
      ctx.scheduler_threads = job.cfg.scheduler_threads;
    }

    result.c = multiply_planned(job.a, job.b, job.cfg, plan, &result.stats,
                                ctx.scheduler.get());
    result.plan_hit = hit;
    result.pool_reused_bytes = lease.reused_bytes;
    result.trace = session;

    // The final capacity (including restart growth) becomes the slab.
    arena_.release(result.stats.pool_bytes);
    leased = false;

    cache_.store(key, std::move(plan));
  } catch (...) {
    error = std::current_exception();
    if (leased) arena_.release(lease.bytes);
    result = JobResult<T>{};  // drop any partially-filled output
    result.error = error;
  }

  // Built outside m_ so the critical section stays a few additions.
  trace::MetricsSnapshot job_metrics;
  if (!error) {
    job_metrics = to_metrics_snapshot(result.stats);
    if (session) job_metrics.counters = session->counters_snapshot();
  }
  {
    acs::MutexLock lock(m_);
    ++stats_.jobs_completed;
    if (error)
      ++stats_.jobs_failed;
    else
      metrics_ += job_metrics;
  }
  // Completion hook before publication: the callback owns the result for
  // its duration (no handle waiter can run until complete()). Moving the
  // hook out guarantees exactly-once even if it throws and the work_loop
  // safety net re-reports the job.
  if (auto cb = std::exchange(job.on_complete, nullptr)) cb(result);
  job.complete(std::move(result), error);
}

template class Engine<float>;
template class Engine<double>;

}  // namespace acs::runtime
