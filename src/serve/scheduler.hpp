#pragma once
/// \file scheduler.hpp
/// Weighted-fair dispatch for the serving layer: deficit round robin (DRR)
/// over per-tenant FIFO queues, with job "sizes" measured in predicted
/// cost seconds — the same currency as admission — so a tenant submitting
/// few large multiplications and one submitting many small ones drain the
/// device at the ratio of their weights, not of their request counts.
///
/// Deterministic: tenant visiting order is registration order, the deficit
/// arithmetic uses only the enqueued costs and configured weights, and
/// ties never consult a clock. Not thread-safe — the server serializes
/// access under its planner mutex.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace acs::serve {

/// One admitted job waiting for dispatch, as the scheduler sees it.
struct QueuedJob {
  std::uint64_t id = 0;     ///< server-side submission sequence number
  double cost_s = 0.0;      ///< predicted service time
  int priority = 0;         ///< shed victims are picked lowest-first
  double arrival_s = 0.0;   ///< virtual arrival (shed tie-break: latest)
};

class DrrScheduler {
 public:
  /// `quantum_s`: deficit credit granted per round-robin visit, scaled by
  /// the tenant weight. Any positive value is fair asymptotically; it
  /// bounds the burst one tenant can serve before the pointer moves on.
  explicit DrrScheduler(double quantum_s = 1e-3);

  /// Register a tenant; returns its dense index. Weight is its DRR share
  /// relative to the other tenants (must be > 0).
  std::size_t add_tenant(double weight);

  [[nodiscard]] std::size_t tenants() const { return states_.size(); }
  [[nodiscard]] std::size_t queued_jobs() const { return queued_; }
  /// Summed predicted cost of every queued job.
  [[nodiscard]] double queued_cost_s() const { return queued_cost_s_; }
  [[nodiscard]] std::size_t queued_jobs_of(std::size_t tenant) const {
    return states_[tenant].queue.size();
  }

  void enqueue(std::size_t tenant, QueuedJob job);

  /// Dequeue the next job under weighted DRR. Returns false when no job is
  /// queued. `tenant_out` (optional) receives the serving tenant.
  bool pop_next(QueuedJob& out, std::size_t* tenant_out = nullptr);

  /// Undo the most natural follow-up to a pop the caller could not act on
  /// (e.g. memory backpressure): the job returns to the *front* of its
  /// tenant's queue and the deficit it consumed is restored.
  void requeue_front(std::size_t tenant, QueuedJob job);

  /// Remove the queued job with the lowest priority (ties: latest arrival,
  /// then highest id) — the backpressure shed victim. False when empty.
  bool shed_lowest_priority(QueuedJob& out, std::size_t* tenant_out = nullptr);

 private:
  struct TenantState {
    std::deque<QueuedJob> queue;
    double weight = 1.0;
    double deficit_s = 0.0;
    /// True while the tenant's once-per-visit quantum grant is live (the
    /// cursor is parked on it serving within the same deficit).
    bool granted = false;
  };

  double quantum_s_;
  std::vector<TenantState> states_;
  /// Round-robin pointer into `states_` (skips empty queues).
  std::size_t cursor_ = 0;
  std::size_t queued_ = 0;
  double queued_cost_s_ = 0.0;
};

}  // namespace acs::serve
