#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/acspgemm.hpp"
#include "tune/predictor.hpp"

namespace acs::serve {

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kDone:
      return "done";
    case ServeStatus::kFailed:
      return "failed";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kShed:
      return "shed";
  }
  return "unknown";
}

template <class T>
Server<T>::Server(ServerConfig config)
    : cfg_(std::move(config)),
      admission_(cfg_.admission),
      drr_(cfg_.drr_quantum_s) {
  // Per-arch tuner grids: a tuner left at the stock nnz_per_block grid
  // picks up the arch's default (SimBigDevice extends it upward). An
  // explicitly customized grid wins.
  if (cfg_.tuner.nnz_per_block == tune::TunerOptions{}.nnz_per_block)
    cfg_.tuner.nnz_per_block =
        tune::default_tuner_options(cfg_.engine.arch).nnz_per_block;
  const std::size_t executors = std::max(1u, cfg_.admission.executors);
  vfree_.assign(executors, 0.0);
  vbytes_.assign(executors, 0);
  // Pre-register configured tenants in listed order (part of the
  // deterministic DRR visiting order); unknown tenants join on first use.
  for (const TenantConfig& tc : cfg_.tenants) (void)ensure_tenant_locked(tc.name);
  engine_ = std::make_unique<runtime::Engine<T>>(cfg_.engine);
  max_outstanding_ = engine_->workers() + cfg_.dispatch_slack;
}

template <class T>
Server<T>::~Server() {
  drain();
  // engine_ is declared last, so it is destroyed first — and after drain()
  // it holds no job whose callback could touch the members dying after it.
}

template <class T>
std::size_t Server<T>::ensure_tenant_locked(const std::string& name) {
  const auto it = tenant_index_.find(name);
  if (it != tenant_index_.end()) return it->second;
  TenantConfig tc;
  tc.name = name;
  for (const TenantConfig& c : cfg_.tenants)
    if (c.name == name) {
      tc = c;
      break;
    }
  const std::size_t idx = drr_.add_tenant(tc.weight);
  TenantRuntime rt;
  rt.bucket = TokenBucket(tc.quota_cost_s_per_s, tc.quota_burst_cost_s);
  rt.stats.name = name;
  rt.stats.weight = tc.weight > 0.0 ? tc.weight : 1.0;
  tenants_.push_back(std::move(rt));
  tenant_index_.emplace(name, idx);
  return idx;
}

template <class T>
ServeHandle<T> Server<T>::submit(Csr<T> a, Csr<T> b, SubmitInfo info,
                                 Config cfg) {
  // Tenant boundary: pricing below indexes B's rows by A's column ids, so
  // malformed operands are refused before anything reads them.
  if (a.cols != b.rows)
    throw std::invalid_argument("serve: dimension mismatch (A.cols != B.rows)");
  if (const std::string err = a.validate(); !err.empty())
    throw std::invalid_argument("serve: invalid A: " + err);
  if (const std::string err = b.validate(); !err.empty())
    throw std::invalid_argument("serve: invalid B: " + err);
  auto state = std::make_shared<detail::ServeState<T>>();
  // Price, tune and fingerprint under the backend the engine will actually
  // run: the engine overlays its arch on every submission, so mirror it
  // here before any prediction — a SimBigDevice makespan (or a NativeCpu
  // thread count) differs from the submitted Config's.
  runtime::apply_arch(cfg, cfg_.engine);
  acs::MutexLock lock(m_);

  // The virtual clock never runs backwards: a stale timestamp is clamped
  // to the latest arrival so the decision model stays well-defined.
  const double arrival = std::max(info.arrival_s, last_arrival_s_);
  last_arrival_s_ = arrival;
  info.arrival_s = arrival;

  const std::size_t tidx = ensure_tenant_locked(info.tenant);
  ++tenants_[tidx].stats.submitted;

  // Price the request: features are cached per structure fingerprint (the
  // extraction pass is the expensive part), the closed-form predictor then
  // costs one evaluation per submission.
  const runtime::Fingerprint fp = runtime::fingerprint(a, b, cfg.arch);
  PredictionEntry& pe = predictions_[fp];
  const bool first_sight = !pe.have_features;
  if (first_sight) {
    pe.features = tune::extract_features(a, b, cfg_.tuner.sample_stride,
                                         cfg_.tuner.min_samples);
    pe.have_features = true;
    pe.tune_ready_s = arrival + cfg_.tune_latency_s;
    pe.tune_base = cfg;
  }

  // Degradation, modeled in virtual time so the flag is a pure function of
  // the trace: the first submission of a fingerprint always counts as
  // degraded, later ones while the modeled tune latency has not elapsed.
  const bool degraded =
      cfg_.tuning && (first_sight || arrival < pe.tune_ready_s);

  // Admission costs are always predicted under the *submitted* Config, not
  // the tuned one — the overlay is only decided at the fingerprint's first
  // dispatch, after admission.
  const double raw_cost = tune::predict_makespan_s(pe.features, cfg, sizeof(T));
  const double scaled_cost = std::max(0.0, raw_cost) *
                             std::max(1.0, cfg_.admission.deadline_safety);

  TenantRuntime& tr = tenants_[tidx];
  AdmissionDecision d;
  // Quota pre-check without consuming (an admission-rejected job must not
  // burn tokens); the slack mirrors TokenBucket::try_consume's.
  if (!tr.bucket.unmetered() &&
      tr.bucket.available(arrival) + 1e-12 < scaled_cost) {
    d.outcome = AdmissionOutcome::kRejectedQuota;
    d.predicted_cost_s = scaled_cost;
    d.backlog_jobs = admission_.backlog_jobs(arrival);
  } else {
    d = admission_.evaluate(arrival, info.deadline_s, raw_cost);
    if (d.admitted()) (void)tr.bucket.try_consume(arrival, scaled_cost);
  }
  state->decision = d;

  if (!d.admitted()) {
    switch (d.outcome) {
      case AdmissionOutcome::kRejectedDeadline:
        ++tr.stats.rejected_deadline;
        break;
      case AdmissionOutcome::kRejectedQuota:
        ++tr.stats.rejected_quota;
        break;
      case AdmissionOutcome::kRejectedQueueFull:
        ++tr.stats.rejected_queue_full;
        break;
      default:
        break;
    }
    ServeResult<T> r;
    r.status = ServeStatus::kRejected;
    r.admission = d;
    r.tenant = info.tenant;
    r.priority = info.priority;
    r.arrival_s = arrival;
    r.degraded = degraded;
    state->resolve(std::move(r));
    return ServeHandle<T>(std::move(state));
  }

  ++tr.stats.admitted;
  if (degraded) ++tr.stats.degraded;

  JobRec rec;
  rec.id = next_id_++;
  rec.tenant = tidx;
  rec.info = info;
  rec.cfg = cfg;
  rec.fp = fp;
  rec.degraded = degraded;
  rec.cost_s = d.predicted_cost_s;
  rec.pool_bytes = estimate_chunk_pool_bytes(a, b, cfg);
  rec.decision = d;
  rec.a = std::move(a);
  rec.b = std::move(b);
  rec.state = state;
  ++unresolved_;
  drr_.enqueue(tidx, QueuedJob{rec.id, rec.cost_s, info.priority, arrival});
  queued_jobs_.emplace(rec.id, std::move(rec));

  // Virtual-timeline depth only: the real ready list drains at the
  // engine's pace, which would make the peak depend on worker count.
  queue_depth_peak_ = std::max(queue_depth_peak_, drr_.queued_jobs());

  advance_virtual_locked(arrival);
  pump_locked();
  return ServeHandle<T>(std::move(state));
}

template <class T>
void Server<T>::advance_virtual_locked(double until_s) {
  const std::size_t ceiling = cfg_.arena_ceiling_bytes;
  for (;;) {
    QueuedJob qj;
    std::size_t tidx = 0;
    if (!drr_.pop_next(qj, &tidx)) return;
    const auto it = queued_jobs_.find(qj.id);
    JobRec rec = std::move(it->second);
    queued_jobs_.erase(it);

    double start =
        std::max(*std::min_element(vfree_.begin(), vfree_.end()),
                 rec.info.arrival_s);

    if (ceiling > 0) {
      if (rec.pool_bytes > ceiling) {
        // Can never fit under the ceiling, on an idle machine or otherwise.
        resolve_shed_locked(std::move(rec));
        continue;
      }
      bool gated = false;
      for (;;) {
        std::size_t busy = 0;
        for (std::size_t i = 0; i < vfree_.size(); ++i)
          if (vfree_[i] > start) busy += vbytes_[i];
        if (busy + rec.pool_bytes <= ceiling) break;
        gated = true;
        // Wait (in virtual time) for the earliest modeled completion; the
        // busy set is non-empty here, so the bound is finite and shrinks.
        double nf = std::numeric_limits<double>::infinity();
        for (const double f : vfree_)
          if (f > start) nf = std::min(nf, f);
        start = nf;
      }
      // Memory pressure sheds the queue tail rather than letting deadlines
      // rot: lowest priority first, beyond the configured bound.
      if (gated) shed_over_cap_locked();
    }

    if (start > until_s) {
      // Dispatching this job belongs to the future — a later arrival may
      // out-rank it under DRR by then. Put it back untouched.
      drr_.requeue_front(tidx, qj);
      queued_jobs_.emplace(qj.id, std::move(rec));
      return;
    }

    rec.virtual_start_s = start;
    rec.virtual_finish_s = start + rec.cost_s;
    rec.deadline_missed = rec.virtual_finish_s > rec.info.deadline_s;
    TenantRuntime& tr = tenants_[rec.tenant];
    tr.stats.served_cost_s += rec.cost_s;
    if (rec.deadline_missed) ++tr.stats.deadline_misses;

    const auto slot = std::min_element(vfree_.begin(), vfree_.end());
    const auto e = static_cast<std::size_t>(
        std::distance(vfree_.begin(), slot));
    vfree_[e] = rec.virtual_finish_s;
    vbytes_[e] = rec.pool_bytes;
    ready_.push_back(std::move(rec));
  }
}

template <class T>
void Server<T>::shed_over_cap_locked() {
  const std::size_t cap = cfg_.shed_queue_jobs;
  if (cap == 0) return;  // shedding disabled: gated jobs wait
  QueuedJob qj;
  std::size_t tidx = 0;
  while (drr_.queued_jobs() > cap && drr_.shed_lowest_priority(qj, &tidx)) {
    const auto it = queued_jobs_.find(qj.id);
    JobRec rec = std::move(it->second);
    queued_jobs_.erase(it);
    resolve_shed_locked(std::move(rec));
  }
}

template <class T>
void Server<T>::resolve_shed_locked(JobRec rec) {
  ++tenants_[rec.tenant].stats.shed;
  ServeResult<T> r = make_result_locked(rec, ServeStatus::kShed);
  // The handle's decision stays "admitted" (it was); the result records
  // what ultimately happened.
  r.admission.outcome = AdmissionOutcome::kShedMemory;
  rec.state->resolve(std::move(r));
  --unresolved_;
  drain_cv_.notify_all();
}

template <class T>
ServeResult<T> Server<T>::make_result_locked(const JobRec& rec,
                                             ServeStatus status) {
  ServeResult<T> r;
  r.status = status;
  r.admission = rec.decision;
  r.tenant = tenants_[rec.tenant].stats.name;
  r.priority = rec.info.priority;
  r.arrival_s = rec.info.arrival_s;
  r.degraded = rec.degraded;
  r.virtual_start_s = rec.virtual_start_s;
  r.virtual_finish_s = rec.virtual_finish_s;
  r.deadline_missed = rec.deadline_missed;
  return r;
}

template <class T>
void Server<T>::pump_locked() {
  const std::size_t ceiling = cfg_.arena_ceiling_bytes;
  while (outstanding_ < max_outstanding_ && !ready_.empty()) {
    // Real backpressure mirrors the virtual gate: never stack predicted
    // pool demand past the ceiling (unless the job would be alone).
    if (ceiling > 0 && outstanding_ > 0 &&
        outstanding_pool_bytes_ + ready_.front().pool_bytes > ceiling)
      break;
    JobRec rec = std::move(ready_.front());
    ready_.pop_front();

    const TunedParams tuned =
        cfg_.tuning ? ensure_tuned_locked(rec.fp) : TunedParams{};
    Config eff = rec.cfg;
    tuned.apply(eff);

    ServeResult<T> proto = make_result_locked(rec, ServeStatus::kDone);
    proto.tuned_applied = tuned;
    ++outstanding_;
    outstanding_pool_bytes_ += rec.pool_bytes;
    auto st = rec.state;
    const std::size_t tidx = rec.tenant;
    const std::size_t pool = rec.pool_bytes;
    engine_->submit(
        std::move(rec.a), std::move(rec.b), eff,
        [this, st, tidx, pool,
         proto = std::move(proto)](runtime::JobResult<T>& jr) mutable {
          const bool job_failed = jr.failed();
          proto.status = job_failed ? ServeStatus::kFailed : ServeStatus::kDone;
          proto.job = std::move(jr);
          // Resolve before the accounting decrement: once drain() sees
          // unresolved_ == 0, every handle is guaranteed resolved.
          st->resolve(std::move(proto));
          {
            acs::MutexLock lock(m_);
            --outstanding_;
            outstanding_pool_bytes_ -= pool;
            TenantStats& ts = tenants_[tidx].stats;
            if (job_failed)
              ++ts.failed;
            else
              ++ts.completed;
            --unresolved_;
            pump_locked();
          }
          drain_cv_.notify_all();
        });
  }
}

template <class T>
TunedParams Server<T>::ensure_tuned_locked(const runtime::Fingerprint& fp) {
  PredictionEntry& pe = predictions_[fp];
  if (!pe.tuned_computed) {
    // A pure function of (features, first-submitted Config): the overlay
    // does not depend on which dispatch computes it.
    pe.tuned = tune::AutoTuner(cfg_.tuner).choose(pe.features, pe.tune_base,
                                                  sizeof(T));
    pe.tuned_computed = true;
    ++tunes_;
  }
  return pe.tuned;
}

template <class T>
void Server<T>::drain() {
  acs::MutexLock lock(m_);
  advance_virtual_locked(std::numeric_limits<double>::infinity());
  pump_locked();
  while (unresolved_ != 0) drain_cv_.wait(lock);
}

template <class T>
ServeStats Server<T>::stats() const {
  acs::MutexLock lock(m_);
  ServeStats s;
  s.tenants.reserve(tenants_.size());
  for (const TenantRuntime& tr : tenants_) {
    const TenantStats& t = tr.stats;
    s.tenants.push_back(t);
    s.submitted += t.submitted;
    s.admitted += t.admitted;
    s.rejected +=
        t.rejected_deadline + t.rejected_quota + t.rejected_queue_full;
    s.shed += t.shed;
    s.completed += t.completed;
    s.failed += t.failed;
    s.degraded += t.degraded;
    s.deadline_misses += t.deadline_misses;
  }
  s.tunes = tunes_;
  s.queue_depth_peak = queue_depth_peak_;
  s.queued_jobs = drr_.queued_jobs() + ready_.size();
  s.in_flight_jobs = outstanding_;
  return s;
}

template class Server<float>;
template class Server<double>;

}  // namespace acs::serve
