#include "tune/tuner.hpp"

#include <algorithm>
#include <tuple>

#include "tune/invariants.hpp"  // compile-time proofs ride every build

namespace acs::tune {

TunerOptions default_tuner_options(arch::ArchId arch) {
  TunerOptions opts;
  if (arch == arch::ArchId::kSimBigDevice)
    opts.nnz_per_block.assign(std::begin(kBigDeviceNnzPerBlockGrid),
                              std::end(kBigDeviceNnzPerBlockGrid));
  return opts;
}

namespace {

/// Deterministic tie-break: prefer the lexicographically smaller parameter
/// tuple so equal-cost candidates rank identically everywhere.
std::tuple<int, int, index_t, int> key_of(const TunedParams& p) {
  return {p.nnz_per_block, p.retain_per_thread, p.long_row_threshold,
          p.path_merge_max_chunks};
}

template <class Vec, class V>
void push_unique(Vec& v, V value) {
  if (std::find(v.begin(), v.end(), value) == v.end()) v.push_back(value);
}

/// Candidate grid axes for one job. Each axis always contains the base
/// Config's own value, so the identity overlay is in the grid and tuning
/// can never model-predict worse than the default.
struct GridAxes {
  std::vector<int> npbs;
  std::vector<int> retains;
  std::vector<int> pmcs;
  std::vector<index_t> thresholds;
};

GridAxes build_axes(const TunerOptions& opts, const TuneFeatures& f,
                    const Config& base) {
  GridAxes g;
  g.npbs = opts.nnz_per_block;
  push_unique(g.npbs, base.nnz_per_block);
  g.retains = opts.retain_per_thread;
  push_unique(g.retains, base.retain_per_thread);
  g.pmcs = opts.path_merge_max_chunks;
  push_unique(g.pmcs, base.path_merge_max_chunks);
  g.thresholds.push_back(base.long_row_threshold);
  if (base.long_row_handling) {
    push_unique(g.thresholds, index_t{0});  // auto (= temp_capacity())
    if (f.b_rows.p90 > 0) push_unique(g.thresholds, f.b_rows.p90);
    if (f.b_rows.p99 > 0) push_unique(g.thresholds, f.b_rows.p99);
  }
  return g;
}

}  // namespace

std::vector<Candidate> AutoTuner::rank(const TuneFeatures& f,
                                       const Config& base,
                                       std::size_t value_bytes) const {
  return rank_budgeted(f, base, value_bytes, /*max_candidates=*/0);
}

/// Enumerate, prune, price and sort. Pricing is predictor-only and closed
/// form, so ranking the grid costs microseconds at any matrix size.
std::vector<Candidate> AutoTuner::rank_budgeted(
    const TuneFeatures& f, const Config& base, std::size_t value_bytes,
    std::size_t max_candidates) const {
  const GridAxes g = build_axes(opts_, f, base);
  std::vector<Candidate> out;
  out.reserve(g.npbs.size() * g.retains.size() * g.thresholds.size() *
              g.pmcs.size());
  const auto budget_left = [&] {
    return max_candidates == 0 || out.size() < max_candidates;
  };
  for (std::size_t i = 0; i < g.npbs.size() && budget_left(); ++i) {
    for (std::size_t j = 0; j < g.retains.size() && budget_left(); ++j) {
      for (std::size_t k = 0; k < g.thresholds.size() && budget_left(); ++k) {
        for (std::size_t l = 0; l < g.pmcs.size() && budget_left(); ++l) {
          Candidate c;
          c.params.nnz_per_block = g.npbs[i];
          c.params.retain_per_thread = g.retains[j];
          c.params.long_row_threshold = g.thresholds[k];
          c.params.path_merge_max_chunks = g.pmcs[l];
          c.params.valid = true;
          Config cfg = base;
          c.params.apply(cfg);
          if (!fits_device(cfg, value_bytes)) continue;
          c.cost = predict_cost(f, cfg, value_bytes);
          out.push_back(std::move(c));
        }
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Candidate& x, const Candidate& y) {
    if (x.cost.total_s != y.cost.total_s)
      return x.cost.total_s < y.cost.total_s;
    return key_of(x.params) < key_of(y.params);
  });
  return out;
}

TunedParams AutoTuner::choose_budgeted(const TuneFeatures& f,
                                       const Config& base,
                                       std::size_t value_bytes,
                                       std::size_t max_candidates) const {
  auto ranked = rank_budgeted(f, base, value_bytes, max_candidates);
  if (ranked.empty()) return {};
  return ranked.front().params;
}

TunedParams AutoTuner::choose(const TuneFeatures& f, const Config& base,
                              std::size_t value_bytes) const {
  return choose_budgeted(f, base, value_bytes, /*max_candidates=*/0);
}

}  // namespace acs::tune
