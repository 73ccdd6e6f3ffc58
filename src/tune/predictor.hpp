#pragma once
/// \file predictor.hpp
/// Analytic per-stage work prediction for one candidate configuration.
/// The predictor mirrors the pipeline's own accounting (esc_block.cpp,
/// merge.cpp charge real MetricCounters; acspgemm.cpp schedules them with
/// sim::schedule_blocks) but replaces execution with closed-form estimates
/// over TuneFeatures — so ranking N candidates costs N cost-model
/// evaluations instead of N multiplications. Times come out of the *same*
/// `sim::cost_model` the pipeline uses: per-block counters are scheduled
/// onto the device with `schedule_blocks`, launch overheads and all, which
/// keeps the predictor's preferences aligned with the quantity the benches
/// report.

#include <cstddef>

#include "core/config.hpp"
#include "sim/cost_model.hpp"
#include "tune/features.hpp"

namespace acs::tune {

/// Predicted execution profile of one candidate configuration.
struct CostBreakdown {
  double glb_s = 0.0;    ///< global load balancing kernel
  double esc_s = 0.0;    ///< all local ESC iterations
  double merge_s = 0.0;  ///< merge assignment + Multi/Path/Search merge
  double cc_s = 0.0;     ///< output assembly / chunk copy
  double total_s = 0.0;  ///< sum of the stages above (device makespan)
  /// Total *work*, priced with host-calibrated weights over the same stage
  /// counters (see predictor.cpp's host_work_s). Where `total_s` is the
  /// latency of one multiplication on an otherwise idle simulated device,
  /// `serial_s` is what the execution costs the host scheduler — the
  /// quantity that bounds the engine's batch throughput once independent
  /// jobs keep every worker busy. Relative, not absolute: it ranks
  /// configurations, it does not predict wall seconds.
  double serial_s = 0.0;

  // Intermediate structural estimates, exposed for tests and logging.
  double blocks = 0.0;        ///< ESC blocks (ceil(nnz_a / nnz_per_block))
  double iterations = 0.0;    ///< total local ESC iterations
  double esc_products = 0.0;  ///< products expanded inside ESC blocks
  double long_entries = 0.0;  ///< A entries diverted to pointer chunks
  double chunks = 0.0;        ///< chunks written (ESC + pointer)
  double merged_rows = 0.0;   ///< rows expected to need merging
  double est_nnz_c = 0.0;     ///< estimated output non-zeros
};

/// Predict the cost of running C = A·B (characterized by `f`) under `cfg`.
/// `value_bytes` is sizeof(T) of the value type (the predictor is not
/// templated; only byte volumes depend on T). Deterministic: equal inputs
/// give bit-equal outputs.
///
/// `simulate_makespan` = false skips the `sim::schedule_blocks` pricing of
/// the per-stage device makespans — the O(blocks) part that makes full
/// ranking expensive. The stage times and `total_s` then come back 0;
/// `serial_s` and every structural estimate are unchanged (they are pure
/// closed forms). The tuner ranks this way: pricing one candidate by
/// `serial_s` costs microseconds regardless of matrix size.
CostBreakdown predict_cost(const TuneFeatures& f, const Config& cfg,
                           std::size_t value_bytes,
                           bool simulate_makespan = true);

/// Predicted device makespan (`CostBreakdown::total_s`) of one C = A·B in
/// simulated seconds — the serving layer's pricing seam: admission control
/// (serve/admission.hpp) charges every request this quantity against
/// deadlines, token-bucket quotas and the fair scheduler. Deterministic
/// like `predict_cost`; costs one closed-form evaluation, so pricing a
/// request is cheap next to running it.
double predict_makespan_s(const TuneFeatures& f, const Config& cfg,
                          std::size_t value_bytes);

}  // namespace acs::tune
