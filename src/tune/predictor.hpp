#pragma once
/// \file predictor.hpp
/// Analytic per-stage work prediction for one candidate configuration.
/// The predictor mirrors the pipeline's own accounting (esc_block.cpp,
/// merge.cpp charge real MetricCounters; acspgemm.cpp schedules them with
/// sim::schedule_blocks) but replaces execution with closed-form estimates
/// over TuneFeatures — so ranking N candidates costs N cost-model
/// evaluations instead of N multiplications. Times come out of the *same*
/// `sim::cost_model` the pipeline uses: each stage's counters are priced as
/// a uniform kernel by `sim::uniform_kernel_time_s`, launch overheads and
/// all, in closed form. The modeled makespan `total_s` is both what the
/// tuner ranks by and what admission charges.

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
/// give bit-equal outputs. Every term is a closed form, so one call costs
/// microseconds regardless of matrix size.
CostBreakdown predict_cost(const TuneFeatures& f, const Config& cfg,
                           std::size_t value_bytes);

/// Predicted device makespan (`CostBreakdown::total_s`) of one C = A·B in
/// simulated seconds — the one cost the system decides by: the tuner ranks
/// candidates by it, and admission control (serve/admission.hpp) charges
/// every request this quantity against deadlines, token-bucket quotas and
/// the fair scheduler. Deterministic like `predict_cost`; costs one
/// closed-form evaluation, so pricing a request is cheap next to running
/// it.
double predict_makespan_s(const TuneFeatures& f, const Config& cfg,
                          std::size_t value_bytes);

}  // namespace acs::tune
