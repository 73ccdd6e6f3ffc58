#pragma once
/// \file server.hpp
/// Multi-tenant SpGEMM serving layer on top of the runtime engine. A
/// `Server` accepts asynchronous submissions tagged with a tenant, a
/// priority and a deadline, prices each one through the tuner's cost
/// predictor (admission.hpp), meters tenants with token-bucket quotas
/// (quota.hpp), orders admitted jobs with deficit-round-robin weighted
/// fair scheduling (scheduler.hpp) and dispatches them into an owned
/// `runtime::Engine` worker pool via its non-blocking completion hooks.
///
/// Two timelines, one contract. All *decisions* — admission, quota,
/// degradation, fair-share order, deadline misses, memory sheds — are made
/// on a deterministic virtual timeline driven purely by the submissions'
/// arrival timestamps and structure-derived cost predictions: a bank of
/// `AdmissionConfig::executors` modeled executors is advanced to each
/// arrival, DRR picks what they serve, and a modeled chunk-pool occupancy
/// enforces `ServerConfig::arena_ceiling_bytes`. Real execution merely
/// follows the virtually-dispatched order at whatever pace the engine's
/// workers sustain. Consequences (property-tested in tests/test_serve.cpp):
///   - for a fixed arrival trace the full decision stream (and every
///     serve counter) is byte-identical regardless of `EngineConfig::workers`;
///   - every served result is bit-identical to a direct `acs::multiply`
///     with the same effective Config (the server applies its own
///     `TunedParams` overlay, reported on `ServeResult::tuned_applied`).
///
/// Tuning is one inline call: the first dispatch of a structure
/// fingerprint runs `AutoTuner::choose` (predictor-only, microseconds)
/// under the server lock, and every job of that fingerprint runs the same
/// overlay. Submissions inside `ServerConfig::tune_latency_s` of a
/// fingerprint's first arrival are flagged `degraded` on the virtual
/// timeline — a modeled-time label that does not change the overlay.
/// See DESIGN.md §11.
///
/// Example:
/// \code
///   acs::serve::ServerConfig cfg;
///   cfg.engine.workers = 4;
///   cfg.tenants = {{.name = "interactive", .weight = 3.0},
///                  {.name = "batch", .weight = 1.0}};
///   acs::serve::Server<double> server(cfg);
///   auto h = server.submit(a, b, {.tenant = "interactive",
///                                 .arrival_s = 0.0, .deadline_s = 0.5});
///   if (h.decision().admitted()) use(h.result().job.c);
/// \endcode

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/plan.hpp"
#include "core/thread_annotations.hpp"
#include "matrix/csr.hpp"
#include "runtime/completion.hpp"
#include "runtime/engine.hpp"
#include "runtime/fingerprint.hpp"
#include "serve/admission.hpp"
#include "serve/quota.hpp"
#include "serve/scheduler.hpp"
#include "tune/features.hpp"
#include "tune/tuner.hpp"

namespace acs::serve {

/// One tenant's share and quota. Tenants not pre-registered in
/// `ServerConfig::tenants` are created on first use with these defaults.
struct TenantConfig {
  std::string name;
  /// DRR weight: relative share of predicted cost-seconds under contention.
  double weight = 1.0;
  /// Token-bucket refill in predicted cost-seconds per virtual second;
  /// <= 0 = unmetered.
  double quota_cost_s_per_s = 0.0;
  /// Bucket capacity (and initial fill) in predicted cost-seconds.
  double quota_burst_cost_s = 0.0;
};

struct ServerConfig {
  /// Engine running the admitted jobs. It runs each job's Config verbatim;
  /// the server applies the tuned overlay before submission (see file
  /// header), so every result stays reconstructible.
  runtime::EngineConfig engine;
  std::vector<TenantConfig> tenants;
  /// Deadline-based admission control over modeled executors, which also
  /// size the virtual dispatch timeline.
  AdmissionConfig admission;
  /// DRR deficit quantum in predicted cost-seconds per round-robin visit.
  double drr_quantum_s = 1e-3;
  /// Server-side cost-model tuning: one `AutoTuner::choose` per structure
  /// fingerprint over `tune::default_tuner_options(engine.arch)`, applied
  /// to every job of that fingerprint. Off: every job runs its submitted
  /// Config and nothing is ever `degraded`.
  bool tuning = true;
  /// Modeled virtual latency between the first request of a fingerprint
  /// and its tune counting as warm. The first submission is always
  /// degraded; later ones are degraded while `arrival < first + latency`.
  /// A label on the virtual timeline only: degraded and warm jobs run the
  /// same overlay.
  double tune_latency_s = 0.0;
  /// Ceiling on the modeled chunk-pool bytes of concurrently running jobs
  /// (and on the real dispatch pipeline); 0 = unlimited. A job whose own
  /// predicted pool demand exceeds the ceiling is shed outright.
  std::size_t arena_ceiling_bytes = 0;
  /// While the virtual timeline is memory-gated, queued jobs beyond this
  /// count are shed lowest-priority-first; 0 = never shed (jobs wait).
  std::size_t shed_queue_jobs = 0;
};

/// Terminal state of a submission.
enum class ServeStatus {
  kDone = 0,   ///< served; `ServeResult::job` holds the product
  kFailed,     ///< admitted but the multiplication failed (job.error set)
  kRejected,   ///< refused at admission (see AdmissionDecision::outcome)
  kShed,       ///< admitted, then dropped under the arena ceiling
};

[[nodiscard]] const char* to_string(ServeStatus status);

/// Submission tags. Arrivals are virtual timestamps of an open-loop trace
/// and must be non-decreasing per server (earlier values are clamped).
struct SubmitInfo {
  std::string tenant = "default";
  int priority = 0;  ///< shed victims are picked lowest-first
  double arrival_s = 0.0;
  /// Absolute virtual deadline; infinity = none.
  double deadline_s = std::numeric_limits<double>::infinity();
};

template <class T>
struct ServeResult {
  ServeStatus status = ServeStatus::kRejected;
  AdmissionDecision admission;
  std::string tenant;
  int priority = 0;
  double arrival_s = 0.0;
  /// True when the job arrived inside its fingerprint's modeled tune
  /// latency (`ServerConfig::tune_latency_s`). Does not change the overlay.
  bool degraded = false;
  /// Parameter overlay the job actually ran with — the fingerprint's
  /// `AutoTuner::choose` pick, invalid when tuning is off (or no candidate
  /// fit the device): apply it to the submitted Config to reproduce the run
  /// with a direct `acs::multiply` bit-identically.
  TunedParams tuned_applied;
  /// Virtual service window on the modeled executors (0 when not served).
  double virtual_start_s = 0.0;
  double virtual_finish_s = 0.0;
  /// Virtual finish past the requested deadline (decided at dispatch on
  /// the deterministic timeline, counted in `TenantStats::deadline_misses`).
  bool deadline_missed = false;
  /// Engine result when the job ran (kDone / kFailed); default otherwise.
  runtime::JobResult<T> job;

  [[nodiscard]] bool served() const { return status == ServeStatus::kDone; }
  /// Virtual queueing + service latency of a served job.
  [[nodiscard]] double virtual_latency_s() const {
    return virtual_finish_s - arrival_s;
  }
};

namespace detail {

template <class T>
struct ServeState {
  /// Set before the handle is returned; immutable afterwards.
  AdmissionDecision decision;
  runtime::Completion<ServeResult<T>> result;
};

}  // namespace detail

template <class T>
class Server;

/// Future-like handle to a submission. The admission decision is available
/// immediately; the result once the job resolves (served, failed, rejected
/// or shed — rejected handles resolve before `submit` returns). Cheap to
/// copy; all copies refer to the same result.
template <class T>
class ServeHandle {
 public:
  ServeHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// The structured admission verdict, available without waiting.
  [[nodiscard]] const AdmissionDecision& decision() const {
    return state_->decision;
  }

  [[nodiscard]] bool ready() const { return state_->result.ready(); }

  void wait() const { (void)state_->result.wait(); }

  /// Block until the submission resolves. Never throws: engine failures
  /// surface as `status == kFailed` with `job.error` set. The reference
  /// stays valid as long as any handle to the submission exists.
  [[nodiscard]] ServeResult<T>& result() const { return state_->result.wait(); }

 private:
  friend class Server<T>;
  explicit ServeHandle(std::shared_ptr<detail::ServeState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::ServeState<T>> state_;
};

/// Per-tenant serving statistics (all counters deterministic for a fixed
/// arrival trace; `completed`/`failed` lag until the real engine catches
/// up — `Server::drain()` first if exact totals matter).
struct TenantStats {
  std::string name;
  double weight = 1.0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;  ///< successfully served
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;   ///< admitted inside the tune latency
  std::uint64_t deadline_misses = 0;
  /// Predicted cost-seconds virtually dispatched for this tenant — the
  /// fair-share currency (Jain's index over these is the fairness gate).
  double served_cost_s = 0.0;
};

/// Server-wide statistics. `submitted` through `deadline_misses` are sums of
/// the tenant rows (`rejected` folds the two refusal kinds together).
struct ServeStats {
  std::vector<TenantStats> tenants;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t deadline_misses = 0;
  /// Tuned overlays computed — one per structure fingerprint dispatched
  /// with tuning on.
  std::uint64_t tunes = 0;
  /// Peak admitted jobs waiting in the DRR queues for a modeled executor,
  /// sampled at each admission (virtual timeline only).
  std::size_t queue_depth_peak = 0;
  std::size_t queued_jobs = 0;    ///< snapshot: awaiting real dispatch
  std::size_t in_flight_jobs = 0; ///< snapshot: running in the engine
};

template <class T>
class Server {
 public:
  explicit Server(ServerConfig config = {});
  /// Drains every admitted job, then stops the engine.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit C = A·B tagged with `info`. Admission control, quota metering
  /// and the degradation decision run synchronously (the decision is on the
  /// returned handle); execution is asynchronous. Operands are taken by
  /// value — move them in to avoid the copy. Submissions must be made in
  /// arrival order; concurrent callers are serialized, with the
  /// interleaving then defining the trace.
  /// Throws `std::invalid_argument`, counting nothing, when `a.cols !=
  /// b.rows` or either operand fails `Csr::validate()`.
  ServeHandle<T> submit(Csr<T> a, Csr<T> b, SubmitInfo info, Config cfg = {})
      ACS_EXCLUDES(m_);

  /// Flush the virtual timeline (dispatching everything still queued) and
  /// block until every admitted job has resolved and the engine has
  /// counted it.
  void drain() ACS_EXCLUDES(m_);

  /// Per-tenant rows plus totals summed from them; per-job pipeline
  /// numbers are on `engine().metrics()`.
  [[nodiscard]] ServeStats stats() const ACS_EXCLUDES(m_);
  [[nodiscard]] runtime::Engine<T>& engine() { return *engine_; }
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

 private:
  /// Per-fingerprint prediction + tune state, mutated only under m_.
  struct PredictionEntry {
    bool have_features = false;  ///< false until the first submission
    tune::TuneFeatures features;
    double tune_ready_s = 0.0;  ///< modeled warm time of the tuned plan
    /// Config the tune ranks against (the first submission's), pinned so
    /// the overlay is a pure function of the trace.
    Config tune_base;
    bool tuned_computed = false;
    TunedParams tuned;
  };

  /// One admitted job between admission and real dispatch.
  struct JobRec {
    std::uint64_t id = 0;
    std::size_t tenant = 0;
    SubmitInfo info;
    Config cfg;  ///< as submitted; the overlay is applied at dispatch
    runtime::Fingerprint fp;
    bool degraded = false;
    double cost_s = 0.0;            ///< predicted makespan
    std::size_t pool_bytes = 0;     ///< predicted chunk-pool demand
    AdmissionDecision decision;
    double virtual_start_s = 0.0;   ///< filled at virtual dispatch
    double virtual_finish_s = 0.0;
    bool deadline_missed = false;
    Csr<T> a;
    Csr<T> b;
    std::shared_ptr<detail::ServeState<T>> state;
  };

  struct TenantRuntime {
    TokenBucket bucket;
    TenantStats stats;
  };

  std::size_t ensure_tenant_locked(const std::string& name) ACS_REQUIRES(m_);
  /// Advance the virtual dispatch timeline to `until_s` (inclusive):
  /// modeled executors pick DRR winners, the arena ceiling gates/sheds,
  /// misses are counted, dispatched jobs move to the ready list.
  void advance_virtual_locked(double until_s) ACS_REQUIRES(m_);
  /// Shed queued jobs beyond `shed_queue_jobs` (memory-gated path only).
  void shed_over_cap_locked() ACS_REQUIRES(m_);
  void resolve_shed_locked(JobRec rec) ACS_REQUIRES(m_);
  /// Hand ready jobs to the engine, bounded by one job beyond its workers
  /// and by the arena ceiling over real in-flight predicted pool bytes.
  void pump_locked() ACS_REQUIRES(m_);
  /// Tuned overlay for `fp`, computed by `AutoTuner::choose` at its first
  /// dispatch and replayed afterwards.
  TunedParams ensure_tuned_locked(const runtime::Fingerprint& fp)
      ACS_REQUIRES(m_);
  ServeResult<T> make_result_locked(const JobRec& rec, ServeStatus status)
      ACS_REQUIRES(m_);

  ServerConfig cfg_;
  /// Tunes under the engine's arch (`tune::default_tuner_options`).
  const tune::AutoTuner tuner_;

  mutable acs::Mutex m_;
  acs::CondVar drain_cv_;
  AdmissionModel admission_ ACS_GUARDED_BY(m_);
  DrrScheduler drr_ ACS_GUARDED_BY(m_);
  std::unordered_map<std::string, std::size_t> tenant_index_
      ACS_GUARDED_BY(m_);
  std::vector<TenantRuntime> tenants_ ACS_GUARDED_BY(m_);
  std::unordered_map<std::uint64_t, JobRec> queued_jobs_
      ACS_GUARDED_BY(m_);  ///< in DRR
  /// Virtually dispatched, awaiting the engine.
  std::deque<JobRec> ready_ ACS_GUARDED_BY(m_);
  /// Virtual dispatch executors: free time + pool bytes of current job.
  std::vector<double> vfree_ ACS_GUARDED_BY(m_);
  std::vector<std::size_t> vbytes_ ACS_GUARDED_BY(m_);
  std::unordered_map<runtime::Fingerprint, PredictionEntry,
                     runtime::FingerprintHash>
      predictions_ ACS_GUARDED_BY(m_);
  std::uint64_t next_id_ ACS_GUARDED_BY(m_) = 0;
  double last_arrival_s_ ACS_GUARDED_BY(m_) = 0.0;
  std::size_t outstanding_ ACS_GUARDED_BY(m_) = 0;  ///< jobs in the engine
  std::size_t outstanding_pool_bytes_ ACS_GUARDED_BY(m_) = 0;
  /// Admitted jobs not yet resolved.
  std::size_t unresolved_ ACS_GUARDED_BY(m_) = 0;
  /// Server-wide counts that belong to no tenant (see ServeStats).
  std::uint64_t tunes_ ACS_GUARDED_BY(m_) = 0;
  std::size_t queue_depth_peak_ ACS_GUARDED_BY(m_) = 0;

  /// Constructed last (after every member its completion callbacks touch),
  /// destroyed first.
  std::unique_ptr<runtime::Engine<T>> engine_;
};

extern template class Server<float>;
extern template class Server<double>;

}  // namespace acs::serve
