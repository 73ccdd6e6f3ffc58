#pragma once
/// \file tuner.hpp
/// Cost-model-driven auto-tuner for per-multiply parameters. Given the
/// structural features of a job (features.hpp) it enumerates a candidate
/// grid over `nnz_per_block`, the retained-element budget, the long-row
/// threshold and the Path/Search merge cutoff, rejects candidates that
/// would overflow the scratchpad (`fits_device`, the check
/// Pipeline::validate enforces at run time), prices the survivors through
/// the closed-form predictor (predictor.hpp) and returns the one with the
/// lowest modeled makespan (`CostBreakdown::total_s`, the cost admission
/// charges) as a `TunedParams` overlay. The caller applies the overlay to
/// its own Config (src/serve does, once per structure fingerprint); nothing
/// is cached or refined here.
///
/// Determinism: ranking is a pure function of (features, base config,
/// value width) — no clocks, no RNG, no measured times — and ties break on
/// the candidate's parameter tuple, so every run, worker and scheduler
/// interleaving picks the same winner (DESIGN.md §9).

#include <cstddef>
#include <iterator>
#include <vector>

#include "arch/arch_id.hpp"
#include "core/config.hpp"
#include "core/plan.hpp"
#include "tune/features.hpp"
#include "tune/predictor.hpp"

namespace acs::tune {

/// Default candidate grids, exposed as constexpr arrays so that
/// tune/invariants.hpp can prove feasibility properties of every default
/// tuple at compile time (TunerOptions below seeds its vectors from them).
inline constexpr int kDefaultNnzPerBlockGrid[] = {128, 256, 512, 1024};
inline constexpr int kDefaultRetainGrid[] = {2, 4, 6};
inline constexpr int kDefaultPathMergeGrid[] = {4, 8, 16};

/// SimBigDevice candidate grid for nnz_per_block: its 96 KiB scratchpad
/// admits block shapes the 48 KiB default device prunes (1024 and 2048
/// with double values — tune/invariants.hpp proves both bounds), so the
/// grid extends upward. Selected through `default_tuner_options`.
inline constexpr int kBigDeviceNnzPerBlockGrid[] = {128, 256, 512, 1024,
                                                    2048};

/// Candidate grids and sampling parameters of the tuner. Grids hold the
/// values tried for each knob; the base Config's own value is always added,
/// so tuning can never do worse than the default *under the model*.
struct TunerOptions {
  std::vector<int> nnz_per_block{std::begin(kDefaultNnzPerBlockGrid),
                                 std::end(kDefaultNnzPerBlockGrid)};
  std::vector<int> retain_per_thread{std::begin(kDefaultRetainGrid),
                                     std::end(kDefaultRetainGrid)};
  std::vector<int> path_merge_max_chunks{std::begin(kDefaultPathMergeGrid),
                                         std::end(kDefaultPathMergeGrid)};
  /// Feature-extraction sampling (see extract_features).
  std::size_t sample_stride = 8;
  std::size_t min_samples = 512;
};

/// The tuner options an architecture tunes under by default: the stock
/// grids everywhere, except that SimBigDevice swaps in
/// `kBigDeviceNnzPerBlockGrid` to exploit its larger scratchpad. The
/// serving layer seeds its tuner from this (`EngineConfig::arch`).
[[nodiscard]] TunerOptions default_tuner_options(arch::ArchId arch);

/// One priced candidate: the parameter overlay plus its predicted profile.
struct Candidate {
  TunedParams params;
  CostBreakdown cost;
};

class AutoTuner {
 public:
  explicit AutoTuner(TunerOptions opts = {}) : opts_(std::move(opts)) {}

  [[nodiscard]] const TunerOptions& options() const { return opts_; }

  /// Price every feasible candidate for a job with features `f` under the
  /// base configuration through the predictor alone (no multiplication
  /// runs), lowest `CostBreakdown::total_s` first, ties broken on the
  /// parameter tuple. Each candidate's `total_s` equals
  /// `predict_makespan_s` of its applied Config. Never empty as long as
  /// the base configuration itself is feasible.
  [[nodiscard]] std::vector<Candidate> rank(const TuneFeatures& f,
                                            const Config& base,
                                            std::size_t value_bytes) const;

  /// The winning overlay (`rank(...)[0].params`), or an invalid
  /// TunedParams when no candidate fits the device.
  [[nodiscard]] TunedParams choose(const TuneFeatures& f, const Config& base,
                                   std::size_t value_bytes) const;

  /// `rank` capped at the first `max_candidates` feasible candidates in
  /// deterministic grid-enumeration order; 0 = price them all, which is
  /// `rank` itself.
  [[nodiscard]] std::vector<Candidate> rank_budgeted(
      const TuneFeatures& f, const Config& base, std::size_t value_bytes,
      std::size_t max_candidates) const;

  /// The budgeted winner (`rank_budgeted(...)[0].params`), or an invalid
  /// TunedParams when no candidate fits the device.
  [[nodiscard]] TunedParams choose_budgeted(const TuneFeatures& f,
                                            const Config& base,
                                            std::size_t value_bytes,
                                            std::size_t max_candidates) const;

 private:
  TunerOptions opts_;
};

}  // namespace acs::tune
