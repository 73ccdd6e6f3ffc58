#pragma once
/// \file exporters.hpp
/// Serialization of a `TraceSession` for two consumers:
///  * `to_chrome_json` — Chrome `trace_event` JSON (load in Perfetto /
///    chrome://tracing). Spans are laid out on the *simulated* timeline:
///    a span's duration is its attributed simulated time plus that of its
///    children, so the per-stage totals visible in the viewer equal the
///    Fig. 7 breakdown exactly. Wall-clock times ride along in `args`.
///  * `to_table` — human-readable text table for examples and debugging.

#include <array>
#include <string>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace acs::trace {

struct ExportOptions {
  /// Include host wall-clock fields. Wall times vary run to run; switch
  /// them off to get byte-identical output for golden tests.
  bool include_wall = true;
};

[[nodiscard]] std::string to_chrome_json(const TraceSession& session,
                                         const ExportOptions& opts = {});
[[nodiscard]] std::string to_table(const TraceSession& session);

/// Simulated time summed per canonical stage (see `kStageNames`) over all
/// spans that are `root` or descendants of `root`; `root == kNoSpan` sums
/// the whole session.
[[nodiscard]] std::array<double, kNumStages> sim_stage_totals(
    const std::vector<SpanRecord>& spans, SpanId root = kNoSpan);

}  // namespace acs::trace
