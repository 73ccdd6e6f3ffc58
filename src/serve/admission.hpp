#pragma once
/// \file admission.hpp
/// Cost-model-driven admission control for the serving layer. The paper's
/// adaptivity picks an execution strategy per matrix; Ocean-style cheap
/// estimation extends the same idea to *traffic*: the tuner's cost
/// predictor (`tune::predict_makespan_s`, a pure function of sparsity
/// structure) prices every request up front, and a request whose predicted
/// completion — backlog included — blows its deadline is rejected with a
/// structured `AdmissionDecision` instead of timing out in queue.
///
/// The model runs entirely in *virtual time*: arrivals carry trace
/// timestamps, service times are predicted simulated seconds, and the
/// backlog is a bank of modeled executors. Nothing reads a host clock or
/// any execution state, so for a fixed arrival trace the decision stream
/// is byte-identical no matter how many engine workers actually run the
/// admitted jobs (property-tested in tests/test_serve.cpp; DESIGN.md §11).

#include <cstddef>
#include <set>
#include <vector>

namespace acs::serve {

/// Why a submission was admitted or refused. Values beyond the model's own
/// verdicts (`kShedMemory`) are attached later by the server when
/// backpressure drops an already-admitted job.
enum class AdmissionOutcome {
  kAdmitted = 0,        ///< queued for dispatch; deadline predicted to hold
  kRejectedDeadline,    ///< predicted finish (backlog + cost) past deadline
  kRejectedQuota,       ///< tenant token bucket empty
  kShedMemory,          ///< admitted, later dropped under the arena ceiling
};

[[nodiscard]] const char* to_string(AdmissionOutcome outcome);

/// The structured verdict returned to the submitter. All quantities are
/// virtual/simulated seconds from the deterministic admission model.
struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  /// Predicted device makespan of this job (tune::predict_makespan_s).
  double predicted_cost_s = 0.0;
  /// Predicted queueing delay ahead of this job at admission time.
  double predicted_wait_s = 0.0;
  /// Predicted absolute (virtual) completion time.
  double predicted_finish_s = 0.0;
  /// Admitted-but-unfinished jobs the model sees at arrival.
  std::size_t backlog_jobs = 0;

  [[nodiscard]] bool admitted() const {
    return outcome == AdmissionOutcome::kAdmitted;
  }

  friend bool operator==(const AdmissionDecision&,
                         const AdmissionDecision&) = default;
};

struct AdmissionConfig {
  /// Modeled executors the backlog drains on. Fixed at configuration time
  /// (never derived from live state) so decisions stay independent of the
  /// real worker count.
  unsigned executors = 1;
};

/// Deterministic virtual-time admission model. Not thread-safe: the server
/// serializes calls under its planner mutex (admission is defined in
/// arrival order, so there is nothing to parallelize).
class AdmissionModel {
 public:
  explicit AdmissionModel(AdmissionConfig cfg = {});

  /// Evaluate one submission and, when it is admitted, commit its cost to
  /// the modeled backlog. `deadline_s` is absolute virtual time
  /// (infinity = no deadline); `predicted_cost_s` is the predictor's
  /// makespan. Arrivals must be non-decreasing (the server clamps them).
  AdmissionDecision evaluate(double arrival_s, double deadline_s,
                             double predicted_cost_s);

  /// Admitted jobs the model considers unfinished at `now_s`.
  [[nodiscard]] std::size_t backlog_jobs(double now_s);

 private:
  /// Virtual time each modeled executor becomes free.
  std::vector<double> free_s_;
  /// Modeled finish times of admitted jobs (pruned as the clock advances).
  std::multiset<double> finishes_;
};

}  // namespace acs::serve
