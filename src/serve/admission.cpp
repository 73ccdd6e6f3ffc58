#include "serve/admission.hpp"

#include <algorithm>

namespace acs::serve {

const char* to_string(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kRejectedDeadline:
      return "rejected_deadline";
    case AdmissionOutcome::kRejectedQuota:
      return "rejected_quota";
    case AdmissionOutcome::kShedMemory:
      return "shed_memory";
  }
  return "unknown";
}

AdmissionModel::AdmissionModel(AdmissionConfig cfg)
    : free_s_(std::max(1u, cfg.executors), 0.0) {}

std::size_t AdmissionModel::backlog_jobs(double now_s) {
  finishes_.erase(finishes_.begin(), finishes_.upper_bound(now_s));
  return finishes_.size();
}

AdmissionDecision AdmissionModel::evaluate(double arrival_s, double deadline_s,
                                           double predicted_cost_s) {
  AdmissionDecision d;
  d.predicted_cost_s = std::max(0.0, predicted_cost_s);
  d.backlog_jobs = backlog_jobs(arrival_s);

  // Earliest modeled executor; a backlog already drained by `arrival_s`
  // never delays the new job.
  const auto next =
      std::min_element(free_s_.begin(), free_s_.end());
  const double start_s = std::max(arrival_s, *next);
  d.predicted_wait_s = start_s - arrival_s;
  d.predicted_finish_s = start_s + d.predicted_cost_s;

  if (d.predicted_finish_s > deadline_s) {
    d.outcome = AdmissionOutcome::kRejectedDeadline;
    return d;
  }

  // Commit: the admitted job occupies the earliest executor.
  *next = d.predicted_finish_s;
  finishes_.insert(d.predicted_finish_s);
  d.outcome = AdmissionOutcome::kAdmitted;
  return d;
}

}  // namespace acs::serve
