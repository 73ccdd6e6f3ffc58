/// \file large_native.cpp
/// Workload large_native: A·A in double on four ~1M-nnz regimes, one job
/// at a time through Engine<double> on the NativeCpu backend. Block
/// execution dominates; runtime, tune and serve do almost nothing. R-MAT
/// (scale 16) is left out: its NativeCpu engine product differs from
/// SimTitanXp, so the workload would fail (perfbench/NOTES.md).

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/acspgemm.hpp"
#include "baselines/spa_gustavson.hpp"
#include "matrix/generators.hpp"
#include "matrix/stats.hpp"
#include "runtime/engine.hpp"
#include "suite/verify.hpp"

namespace perfbench {
namespace {

using acs::Csr;
using Engine = acs::runtime::Engine<double>;

/// A job meets the workload's service level if it finishes within this.
constexpr double kLatencyLimitS = 5.0;
constexpr int kSetupRepeats = 3;

struct Regime {
  std::string name;
  Csr<double> a;
  acs::offset_t products = 0;
};

std::vector<Regime> make_regimes(std::uint64_t seed) {
  std::vector<Regime> r;
  r.push_back({"uniform",
               acs::gen_uniform_random<double>(200000, 200000, 8.0, 2.0,
                                               derive_seed(seed, 1)),
               0});
  r.push_back({"powerlaw",
               acs::gen_powerlaw<double>(100000, 100000, 8.0, 1.6, 1000,
                                         derive_seed(seed, 2)),
               0});
  r.push_back({"stencil3d",
               acs::gen_stencil_3d<double>(50, 50, 50, derive_seed(seed, 3)), 0});
  r.push_back({"blockdense",
               acs::gen_block_dense<double>(20000, 20000, 16, 4,
                                            derive_seed(seed, 5)),
               0});
  for (auto& g : r) g.products = acs::intermediate_products(g.a, g.a);
  return r;
}

acs::runtime::EngineConfig engine_config() {
  acs::runtime::EngineConfig ec;
  ec.arch = acs::arch::ArchId::kNativeCpu;
  ec.workers = 1;
  return ec;
}

/// Inputs, a warm engine and one warm-up product per regime (the
/// reference every timed job of that regime must equal).
struct Setup {
  std::vector<Regime> regimes;
  std::unique_ptr<Engine> engine;
  std::vector<Csr<double>> warm_c;
};

Setup make_setup(std::uint64_t seed, Report& rep) {
  Setup s;
  s.regimes = make_regimes(seed);
  s.engine = std::make_unique<Engine>(engine_config());
  for (const auto& g : s.regimes) {
    auto r = s.engine->submit(g.a, g.a);
    try {
      s.warm_c.push_back(std::move(r.result().c));
    } catch (const std::exception& e) {
      rep.fail(g.name + " warm-up threw: " + e.what());
      s.warm_c.emplace_back();
    }
  }
  return s;
}

Setup timed_setups(std::uint64_t seed, Report& rep) {
  std::vector<double> times;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};  // release the previous copy before building the next
    const auto t0 = Clock::now();
    s = make_setup(seed, rep);
    times.push_back(seconds_since(t0));
  }
  rep.set("setup_s", median(times), "s");
  return s;
}

/// Checks the warm-up product of every regime against a SimTitanXp
/// multiply with the same effective Config (bit-exact) and against the
/// floor (within tolerance). Returns modeled GFLOP/s over the regimes.
double verify_regimes(Setup& s, Report& rep) {
  s.engine.reset();  // return the engine's chunk pools before the references
  double products = 0.0, sim_s = 0.0;
  for (std::size_t i = 0; i < s.regimes.size(); ++i) {
    const auto& g = s.regimes[i];
    acs::Config sim_cfg;  // default arch: SimTitanXp
    sim_cfg.scheduler_threads = 4;
    acs::SpgemmStats st;
    const auto sim_c = acs::multiply(g.a, g.a, sim_cfg, &st);
    if (!sim_c.equals_exact(s.warm_c[i]))
      rep.fail(g.name + ": native product differs from SimTitanXp");
    products += static_cast<double>(st.intermediate_products);
    sim_s += st.sim_time_s;
    const auto floor_c = floor_multiply(g.a, g.a);
    const auto vr = acs::verify_product(s.warm_c[i], floor_c, 1e-10);
    if (!vr.ok()) rep.fail(g.name + ": floor mismatch: " + vr.summary());
  }
  return sim_s > 0.0 ? 2.0 * products / sim_s / 1e9 : 0.0;
}

}  // namespace

void run_large_native(const Options& opt, Report& rep) {
  Setup s = timed_setups(opt.seed, rep);
  const std::size_t n = s.regimes.size();

  std::vector<std::vector<double>> lat(n);
  std::size_t jobs = 0, good = 0;
  double busy_s = 0.0;
  const auto window = Clock::now();
  // Whole rounds over the regimes, so each regime gets the same samples.
  for (int round = 0; round < 2 || seconds_since(window) < opt.seconds;
       ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& g = s.regimes[i];
      const auto t0 = Clock::now();
      auto h = s.engine->submit(g.a, g.a);
      bool ok = true;
      try {
        (void)h.result();
      } catch (const std::exception& e) {
        rep.fail(g.name + " job threw: " + e.what());
        ok = false;
      }
      const double l = seconds_since(t0);
      busy_s += l;
      ++jobs;
      lat[i].push_back(l);
      // Output check outside the job's latency.
      if (ok && !h.result().c.equals_exact(s.warm_c[i])) {
        rep.fail(g.name + " job output differs from its warm-up product");
        ok = false;
      }
      if (ok && l <= kLatencyLimitS) ++good;
    }
  }
  rep.attempted(jobs);

  // Per-regime statistics combined by geometric mean: a percentile over the
  // pooled jobs would sit on the boundary between two regimes' latencies.
  std::vector<double> rates, p50, p99;
  std::ostringstream detail;
  detail << "{";
  for (std::size_t i = 0; i < n; ++i) {
    const double med = median(lat[i]);
    p50.push_back(med);
    p99.push_back(percentile(lat[i], 99.0));
    rates.push_back(2.0 * static_cast<double>(s.regimes[i].products) / med / 1e9);
    detail << (i ? ", " : "") << "\"" << s.regimes[i].name
           << "\": {\"products\": " << s.regimes[i].products
           << ", \"nnz\": " << s.regimes[i].a.nnz()
           << ", \"median_s\": " << med << ", \"latency_s\": [";
    for (std::size_t k = 0; k < lat[i].size(); ++k)
      detail << (k ? ", " : "") << lat[i][k];
    detail << "]}";
  }
  detail << "}";
  rep.note("regimes", detail.str());

  rep.set("wall_gflops", geomean(rates), "GFLOP/s");
  rep.set("jobs_per_s", static_cast<double>(jobs) / busy_s, "1/s");
  rep.set("latency_p50_ms", 1e3 * geomean(p50), "ms");
  rep.set("latency_p99_ms", 1e3 * geomean(p99), "ms");
  rep.set("goodput_frac",
          static_cast<double>(good) / static_cast<double>(jobs), "ratio");
  rep.note("latency_samples", std::to_string(jobs));
  rep.set("model_gflops", verify_regimes(s, rep), "GFLOP/s");
}

void trace_large_native(const Options& opt, Report& rep) {
  Setup s = make_setup(opt.seed, rep);
  const std::size_t n = s.regimes.size();

  // Traced pass: one job per regime, each with its own bench-owned session
  // so the stage split can be read per regime.
  std::array<double, acs::trace::kNumStages> stage_total{};
  acs::trace::CountersSnapshot counters;
  std::ostringstream split;
  split << "{";
  std::cerr << "large_native traced stage self-time share (native, 4 block "
               "threads):\n";
  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = s.regimes[i];
    acs::trace::TraceSession session;
    acs::Config cfg;
    cfg.trace = &session;
    auto h = s.engine->submit(g.a, g.a, cfg);
    try {
      if (!h.result().c.equals_exact(s.warm_c[i]))
        rep.fail(g.name + " traced job output differs");
    } catch (const std::exception& e) {
      rep.fail(g.name + " traced job threw: " + e.what());
    }
    rep.attempted(1);
    const auto self = stage_self_times(session.spans());
    double sum = 0.0;
    for (const double v : self) sum += v;
    split << (i ? ", " : "") << "\"" << g.name << "\": {";
    std::cerr << "  " << g.name << ":";
    for (std::size_t k = 0; k < self.size(); ++k) {
      stage_total[k] += self[k];
      const double share = sum > 0.0 ? self[k] / sum : 0.0;
      split << (k ? ", " : "") << "\"" << acs::trace::kStageNames[k]
            << "\": " << share;
      std::cerr << " " << acs::trace::kStageNames[k] << "=" << static_cast<int>(100.0 * share + 0.5) << "%";
    }
    split << "}";
    std::cerr << "\n";
    counters += session.counters_snapshot();
  }
  split << "}";
  rep.note("stage_share", split.str());
  for (std::size_t k = 0; k < stage_total.size(); ++k)
    rep.set(std::string("core.large_native.") + acs::trace::kStageNames[k] +
                ".wall_s",
            stage_total[k], "s");
  rep.set("core.large_native.esc_iterations",
          static_cast<double>(counters.esc_iterations), "count");
  rep.set("core.large_native.chunks_written",
          static_cast<double>(counters.chunks_written), "count");
  rep.set("core.large_native.merge_rows.multi",
          static_cast<double>(counters.merge_case_rows[acs::trace::kMultiMerge]),
          "count");
  rep.set("core.large_native.merge_rows.path",
          static_cast<double>(counters.merge_case_rows[acs::trace::kPathMerge]),
          "count");
  rep.set("core.large_native.merge_rows.search",
          static_cast<double>(counters.merge_case_rows[acs::trace::kSearchMerge]),
          "count");
  rep.set("core.large_native.long_row_chunks",
          static_cast<double>(counters.long_row_chunks), "count");
  rep.set("core.large_native.restarts", static_cast<double>(counters.restarts),
          "count");
  rep.set("core.large_native.pool_denials",
          static_cast<double>(counters.pool_denials), "count");
  s.engine.reset();
  s.warm_c.clear();

  // Untraced per-regime probes: native 4T and 1T on one warm plan, the lean
  // floor and the instrumented SPA oracle, all sequential calls.
  for (const auto& g : s.regimes) {
    acs::runtime::EngineConfig ec4 = engine_config();
    acs::runtime::EngineConfig ec1 = ec4;
    ec1.native_threads = 1;
    acs::Config cfg4, cfg1;
    acs::runtime::apply_arch(cfg4, ec4);
    acs::runtime::apply_arch(cfg1, ec1);
    acs::SpgemmPlan plan;
    (void)acs::multiply_planned(g.a, g.a, cfg4, plan);  // warms the plan
    auto t0 = Clock::now();
    const auto c4 = acs::multiply_planned(g.a, g.a, cfg4, plan);
    const double t4 = seconds_since(t0);
    t0 = Clock::now();
    auto c1 = acs::multiply_planned(g.a, g.a, cfg1, plan);
    const double t1 = seconds_since(t0);
    if (!c1.equals_exact(c4)) rep.fail(g.name + ": native 1T differs from 4T");
    c1 = Csr<double>{};
    t0 = Clock::now();
    auto fl = floor_multiply(g.a, g.a);
    const double tf = seconds_since(t0);
    const auto vn = acs::verify_product(c4, fl, 1e-10);
    if (!vn.ok()) rep.fail(g.name + ": native vs floor: " + vn.summary());
    t0 = Clock::now();
    const auto spa = acs::spa_multiply(g.a, g.a);
    const double ts = seconds_since(t0);
    const auto vs = acs::verify_product(fl, spa, 1e-10);
    if (!vs.ok()) rep.fail(g.name + ": floor vs spa: " + vs.summary());
    rep.attempted(3);

    rep.set("arch.native_1t_s." + g.name, t1, "s");
    rep.set("arch.native_4t_s." + g.name, t4, "s");
    rep.set("arch.scaling." + g.name, t1 / t4, "ratio");
    rep.set("arch.floor_ratio." + g.name, t1 / tf, "ratio");
    rep.set("ref.floor_s." + g.name, tf, "s");
    rep.set("ref.spa_s." + g.name, ts, "s");
    std::cerr << "  " << g.name << ": products=" << g.products
              << " native1T=" << t1 << "s native4T=" << t4
              << "s floor=" << tf << "s spa=" << ts << "s\n";
  }
}

}  // namespace perfbench
