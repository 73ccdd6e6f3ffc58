/// \file test_tune.cpp
/// The auto-tuner's contracts:
///  * candidate ranking is deterministic and independent of scheduler
///    interleaving — applied directly at 1 and 4 scheduler threads, or
///    through a Server with 1 and 4 workers, it picks the same parameters
///    and produces bit-identical C;
///  * ranking is predictor-only and ranks by the modeled makespan that
///    admission charges (`predict_makespan_s`);
///  * on serve-sized inputs of every structure family the tuned overlay
///    lowers the measured modeled time overall;
///  * every candidate the tuner can emit respects the scratchpad
///    invariants Pipeline::validate enforces (no tuned run can throw the
///    scratchpad-overflow error Pipeline::validate raises).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "arch/arch_id.hpp"
#include "core/acspgemm.hpp"
#include "matrix/coo.hpp"
#include "matrix/generators.hpp"
#include "runtime/engine.hpp"
#include "serve/server.hpp"
#include "tune/features.hpp"
#include "tune/predictor.hpp"
#include "tune/tuner.hpp"

namespace {

using acs::Config;
using acs::Csr;
using acs::TunedParams;
using acs::tune::AutoTuner;
using acs::tune::extract_features;
using acs::tune::TuneFeatures;

/// Quarter-grid values: products and sums are exact in float, so any
/// regrouping of partial sums (different block shapes, diversion, merge
/// splits) must give bit-identical output.
void quantize(Csr<float>& m) {
  for (auto& v : m.values) v = std::round(v * 4.0f) / 4.0f + 0.25f;
}

/// One-entry-per-row selector times a hub-heavy graph: the frontier
/// expansion structure where long-row diversion pays and the tuner should
/// pick a quantile-derived threshold.
std::pair<Csr<float>, Csr<float>> frontier_job() {
  auto web = acs::gen_powerlaw<float>(3000, 3000, 12.0, 1.2, 900, 77);
  quantize(web);
  acs::Coo<float> sel;
  sel.rows = web.rows;
  sel.cols = web.rows;
  for (acs::index_t i = 0; i < web.rows; ++i)
    sel.push(i, static_cast<acs::index_t>((static_cast<long>(i) * 733 + 17) %
                                          web.rows),
             1.25f);
  return {sel.to_csr(), std::move(web)};
}

TEST(Tune, RankingIsDeterministic) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const AutoTuner tuner;
  const auto r1 = tuner.rank(f, Config{}, sizeof(float));
  const auto r2 = tuner.rank(f, Config{}, sizeof(float));
  ASSERT_FALSE(r1.empty());
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].params, r2[i].params);
    EXPECT_EQ(r1[i].cost.total_s, r2[i].cost.total_s);  // bit-equal
    // The rank cost is exactly what admission charges for the overlay.
    Config applied;
    r1[i].params.apply(applied);
    EXPECT_EQ(r1[i].cost.total_s,
              acs::tune::predict_makespan_s(f, applied, sizeof(float)));
  }
}

TEST(Tune, RankingIncludesBaseConfigSoTuningNeverLosesUnderTheModel) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const Config base;
  const AutoTuner tuner;
  const auto ranked = tuner.rank(f, base, sizeof(float));
  ASSERT_FALSE(ranked.empty());
  // Find the candidate that reproduces the base configuration exactly.
  bool base_present = false;
  double base_cost = 0.0;
  for (const auto& c : ranked) {
    Config applied = base;
    c.params.apply(applied);
    if (applied.nnz_per_block == base.nnz_per_block &&
        applied.retain_per_thread == base.retain_per_thread &&
        applied.long_row_threshold == base.long_row_threshold &&
        applied.path_merge_max_chunks == base.path_merge_max_chunks) {
      base_present = true;
      base_cost = c.cost.total_s;
      break;
    }
  }
  ASSERT_TRUE(base_present);
  EXPECT_LE(ranked.front().cost.total_s, base_cost);
}

/// The choice is a pure function of structure: applying `choose` directly
/// at 1 vs. 4 scheduler threads, and serving the same jobs through a Server
/// with 1 vs. 4 engine workers, must agree on the parameters and on every
/// output bit.
TEST(Tune, ChoiceIsInterleavingIndependentAndOutputsBitIdentical) {
  std::vector<std::pair<Csr<float>, Csr<float>>> pairs;
  for (int i = 0; i < 3; ++i) pairs.push_back(frontier_job());
  auto s = acs::gen_stencil_2d<float>(32, 32, 3);
  quantize(s);
  for (int i = 0; i < 2; ++i) pairs.emplace_back(s, s);

  const AutoTuner tuner;
  std::vector<TunedParams> chosen;
  std::vector<Csr<float>> direct;
  for (const auto& [a, b] : pairs) {
    const TunedParams p =
        tuner.choose(extract_features(a, b), Config{}, sizeof(float));
    ASSERT_TRUE(p.valid);
    Config serial;
    serial.scheduler_threads = 1;
    p.apply(serial);
    Config parallel = serial;
    parallel.scheduler_threads = 4;
    direct.push_back(acs::multiply(a, b, serial));
    EXPECT_TRUE(direct.back().equals_exact(acs::multiply(a, b, parallel)));
    chosen.push_back(p);
  }

  for (const unsigned workers : {1u, 4u}) {
    acs::serve::ServerConfig sc;
    sc.engine.workers = workers;
    acs::serve::Server<float> server(sc);
    std::vector<acs::serve::ServeHandle<float>> handles;
    for (int pass = 0; pass < 2; ++pass)
      for (const auto& [a, b] : pairs)
        handles.push_back(server.submit(a, b, {}));
    server.drain();
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const auto& r = handles[i].result();
      ASSERT_TRUE(r.served()) << "workers " << workers << " job " << i;
      EXPECT_EQ(r.tuned_applied, chosen[i % pairs.size()])
          << "workers " << workers << " job " << i;
      EXPECT_TRUE(r.job.c.equals_exact(direct[i % pairs.size()]))
          << "workers " << workers << " job " << i;
    }
    EXPECT_EQ(server.stats().tunes, 2u);  // one per structure fingerprint
  }
}

/// Tuning and the plan cache's pool feedback are independent: a batch run
/// under the tuner's overlay converges to zero restarts like any other.
TEST(Tune, FeedbackRestartsMonotonicallyNonIncreasing) {
  std::vector<std::pair<Csr<float>, Csr<float>>> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back(frontier_job());

  // Under-provisioned pool: the cold pass must restart, warm passes learn.
  Config cfg;
  cfg.pool_lower_bound_bytes = 4 << 10;
  cfg.pool_estimate_factor = 0.01;
  const auto f = extract_features(pairs[0].first, pairs[0].second);
  AutoTuner{}.choose(f, cfg, sizeof(float)).apply(cfg);

  acs::runtime::EngineConfig ec;
  ec.workers = 2;
  acs::runtime::Engine<float> engine(ec);

  std::uint64_t prev = 0;
  for (int pass = 0; pass < 4; ++pass) {
    const std::uint64_t before = engine.metrics().counters.restarts;
    const auto results = engine.multiply_batch(pairs, cfg);
    for (const auto& r : results) {
      ASSERT_FALSE(r.failed());
    }
    const std::uint64_t this_pass = engine.metrics().counters.restarts - before;
    if (pass > 0) {
      EXPECT_LE(this_pass, prev) << "pass " << pass;
    }
    prev = this_pass;
  }
  EXPECT_EQ(prev, 0u) << "pool feedback must converge to zero restarts";
}

TEST(Tune, AllCandidatesRespectScratchpadInvariants) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const Config base;
  const AutoTuner tuner;
  for (const std::size_t value_bytes : {sizeof(float), sizeof(double)}) {
    const auto ranked = tuner.rank(f, base, value_bytes);
    ASSERT_FALSE(ranked.empty());
    for (const auto& c : ranked) {
      Config applied = base;
      c.params.apply(applied);
      EXPECT_TRUE(acs::fits_device(applied, value_bytes));
      EXPECT_LT(applied.retain_per_thread, applied.elements_per_thread);
      EXPECT_GT(applied.nnz_per_block, 0);
      EXPECT_LE(applied.temp_capacity(), 32767)
          << "compaction counters are 15-bit";
    }
    // The known scratchpad ceiling: double values cannot fit a 1024-entry
    // block (keys + values alone exceed 48 KiB), so no double candidate may
    // carry nnz_per_block = 1024 even though the grid offers it.
    if (value_bytes == sizeof(double)) {
      for (const auto& c : ranked) {
        EXPECT_NE(c.params.nnz_per_block, 1024);
      }
    }
  }
}

/// End-to-end: every ranked overlay actually executes (Pipeline::validate
/// throws std::length_error on scratchpad overflow, so running is the
/// strongest invariant check) and yields the same bits as the default.
TEST(Tune, EveryRankedCandidateExecutesBitIdentically) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const Config base;
  const auto ranked = AutoTuner{}.rank(f, base, sizeof(float));
  ASSERT_FALSE(ranked.empty());

  acs::SpgemmStats ref_stats;
  const auto ref = acs::multiply(a, b, base, &ref_stats);
  for (const auto& c : ranked) {
    Config applied = base;
    c.params.apply(applied);
    acs::SpgemmStats st;
    Csr<float> out;
    ASSERT_NO_THROW(out = acs::multiply(a, b, applied, &st));
    EXPECT_TRUE(ref.equals_exact(out));
  }
}

TEST(Tune, FrontierStructureGetsQuantileThresholdAndWiderBlocks) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const Config base;
  const auto choice = AutoTuner{}.choose(f, base, sizeof(float));
  ASSERT_TRUE(choice.valid);
  // Hub rows sit below the default auto threshold (temp_capacity = 2048);
  // diverting them is the whole mechanism, so the tuned threshold must be a
  // real cutoff strictly below what the default would use.
  EXPECT_GT(choice.long_row_threshold, 0);
  EXPECT_LT(choice.long_row_threshold, base.temp_capacity());
  EXPECT_LE(choice.long_row_threshold, f.b_rows.p99);
}

/// The structure families of the serve benchmark (perfbench serve_sim's
/// make_structure), float values.
Csr<float> serve_family(int family, std::uint64_t seed) {
  switch (family) {
    case 0:
      return acs::gen_uniform_random<float>(4000, 4000, 5.0, 1.5, seed);
    case 1:
      return acs::gen_uniform_local<float>(4000, 4000, 6.0, 2.0, 96, seed);
    case 2:
      return acs::gen_powerlaw<float>(3000, 3000, 6.0, 1.6, 150, seed);
    case 3:
      return acs::gen_block_dense<float>(800, 800, 8, 2, seed);
    case 4:
      return acs::gen_rmat<float>(10, 6.0, 0.57, 0.19, 0.19, seed);
    case 5:
      return acs::gen_stencil_2d<float>(60, 60, seed);
    case 6:
      return acs::gen_stencil_3d<float>(14, 14, 14, seed);
    default:
      return acs::gen_banded<float>(5000, 2, seed);
  }
}

/// The tuner's objective is the modeled makespan, so its overlays must not
/// cost modeled time overall: over every serve family at five seeds, the
/// measured `sim_time_s` under the chosen overlay is, in geometric mean, no
/// worse than under the default Config. The max bound pins the predictor's
/// current worst miss so it cannot grow silently.
TEST(Tune, TunedOverlayLowersModeledTimeOnServeFamilies) {
  const AutoTuner tuner(
      acs::tune::default_tuner_options(acs::arch::ArchId::kSimTitanXp));
  double log_sum = 0.0;
  double worst = 0.0;
  int count = 0;
  for (int family = 0; family < 8; ++family) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto a = serve_family(family, seed);
      acs::SpgemmStats base_stats;
      (void)acs::multiply(a, a, Config{}, &base_stats);
      Config tuned;
      const TunedParams p =
          tuner.choose(extract_features(a, a), tuned, sizeof(float));
      ASSERT_TRUE(p.valid);
      p.apply(tuned);
      acs::SpgemmStats tuned_stats;
      (void)acs::multiply(a, a, tuned, &tuned_stats);
      const double ratio = tuned_stats.sim_time_s / base_stats.sim_time_s;
      log_sum += std::log(ratio);
      worst = std::max(worst, ratio);
      ++count;
      EXPECT_LE(ratio, 1.15) << "family " << family << " seed " << seed;
    }
  }
  const double geomean = std::exp(log_sum / count);
  EXPECT_LE(geomean, 1.0) << "worst " << worst;
}

TEST(Tune, FeaturesAreStructuralAndSamplingIsDeterministic) {
  const auto [a, b] = frontier_job();
  const auto f1 = extract_features(a, b);
  auto b2 = b;
  for (auto& v : b2.values) v = -3.75f;  // same structure, new values
  const auto f2 = extract_features(a, b2);
  EXPECT_EQ(f1.est_products, f2.est_products);
  EXPECT_EQ(f1.sampled, f2.sampled);
  EXPECT_EQ(f1.sampled_b_lens, f2.sampled_b_lens);
  EXPECT_EQ(f1.b_rows.p90, f2.b_rows.p90);
  // The threshold helpers agree with a direct computation on the sample.
  double mass = 0.0;
  for (const auto len : f1.sampled_b_lens)
    if (len >= f1.b_rows.p90) mass += static_cast<double>(len);
  EXPECT_DOUBLE_EQ(f1.products_in_rows_at_least(f1.b_rows.p90),
                   mass * static_cast<double>(f1.stride));
}

/// An unlimited budget is `rank` itself: same order, same modeled costs.
TEST(Tune, BudgetedUnlimitedMatchesFullRanking) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const Config base;
  const AutoTuner tuner;

  const auto full = tuner.rank(f, base, sizeof(float));
  const auto unlimited = tuner.rank_budgeted(f, base, sizeof(float), 0);
  ASSERT_EQ(unlimited.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(unlimited[i].params, full[i].params) << "rank " << i;
    EXPECT_EQ(unlimited[i].cost.total_s, full[i].cost.total_s)
        << "rank " << i;
  }
  EXPECT_EQ(tuner.choose_budgeted(f, base, sizeof(float), 0),
            tuner.choose(f, base, sizeof(float)));
}

/// Starved budgets still return a usable plan: every ranked candidate is
/// device-feasible, the list never exceeds the budget, and even budget 1
/// yields a valid choice.
TEST(Tune, TightBudgetsStillYieldFeasiblePlans) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const Config base;
  const AutoTuner tuner;

  for (const std::size_t budget : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}, std::size_t{7}}) {
    // sizeof(double) shrinks the feasible set (wide blocks overflow the
    // scratchpad), so cover both value widths: infeasible tuples must be
    // pruned before they consume budget.
    for (const std::size_t width : {sizeof(float), sizeof(double)}) {
      const auto ranked = tuner.rank_budgeted(f, base, width, budget);
      ASSERT_FALSE(ranked.empty()) << "budget " << budget;
      EXPECT_LE(ranked.size(), budget) << "budget " << budget;
      for (const auto& c : ranked) {
        Config applied = base;
        c.params.apply(applied);
        EXPECT_TRUE(acs::fits_device(applied, width))
            << "budget " << budget << " width " << width;
      }
      const auto choice = tuner.choose_budgeted(f, base, width, budget);
      ASSERT_TRUE(choice.valid) << "budget " << budget;
      // A budgeted choice must execute, and regrouping-safe inputs make it
      // bit-comparable to the untuned baseline.
      Config applied = base;
      choice.apply(applied);
      if (width == sizeof(float)) {
        const auto ref = acs::multiply(a, b, base);
        EXPECT_TRUE(ref.equals_exact(acs::multiply(a, b, applied)))
            << "budget " << budget;
      }
    }
  }
}

/// The budget counts *feasible* candidates in deterministic enumeration
/// order, so growing the budget only ever extends the ranked prefix's
/// candidate set — the budget-1 winner is the cheapest of a subset of what
/// budget-N priced.
TEST(Tune, GrowingBudgetNeverWorsensTheModeledPlan) {
  const auto [a, b] = frontier_job();
  const auto f = extract_features(a, b);
  const Config base;
  const AutoTuner tuner;

  double prev_best = std::numeric_limits<double>::infinity();
  for (std::size_t budget = 1; budget <= 12; ++budget) {
    const auto ranked = tuner.rank_budgeted(f, base, sizeof(float), budget);
    ASSERT_FALSE(ranked.empty());
    EXPECT_LE(ranked[0].cost.total_s, prev_best) << "budget " << budget;
    prev_best = ranked[0].cost.total_s;
  }
}

}  // namespace
