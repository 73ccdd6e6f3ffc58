/// \file serve_sim.cpp
/// Workload serve_sim: an open-loop, three-tenant Poisson trace through
/// Server<float> on the default SimTitanXp backend with server tuning on.
/// About one arrival in eight carries a never-seen structure, so the cold
/// path (features, budgeted tune, pool estimate, plan-cache miss) runs next
/// to the warm one. The only workload on the modeled clock.

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/acspgemm.hpp"
#include "estimate/estimator.hpp"
#include "matrix/generators.hpp"
#include "serve/server.hpp"
#include "suite/verify.hpp"
#include "tune/features.hpp"
#include "tune/tuner.hpp"

namespace perfbench {
namespace {

using acs::Csr;
using Server = acs::serve::Server<float>;

/// Recurring structures: two instances of each of the kFamilies families.
constexpr std::size_t kFamilies = 8;
constexpr std::size_t kRecurring = 2 * kFamilies;
/// One arrival in kNovelEvery carries a fresh structure.
constexpr std::size_t kNovelEvery = 8;
/// Offered load, fixed in absolute terms: arrivals per wall second (about
/// half of what the server sustains on 4 cores), and arrivals per modeled
/// device second on the virtual timeline.
constexpr double kWallRate = 130.0;
constexpr double kVirtualRate = 40000.0;
/// Engine workers leave one core to the server's tuner thread and the
/// client; admission models four executors on the virtual timeline.
constexpr unsigned kWorkers = 3;
constexpr unsigned kExecutors = 4;
constexpr int kSetupRepeats = 5;
/// Keeps timed pure calls from being optimized away.
volatile std::size_t g_keep = 0;

struct Tenant {
  const char* name;
  double weight;
  int priority;
  double share;       ///< fraction of arrivals
  double deadline_s;  ///< relative deadline on the modeled clock
};
constexpr Tenant kTenants[] = {{"interactive", 3.0, 2, 0.4, 0.0001},
                               {"batch", 1.0, 0, 0.3, 0.002},
                               {"analytics", 1.0, 1, 0.3, 0.0003}};

/// Structure families; the first kRandomFamilies draw their sparsity
/// pattern from the seed, so a fresh seed always gives a never-seen
/// fingerprint. Stencils and bands are fixed by their size: recurring only.
constexpr std::size_t kRandomFamilies = 5;

Csr<float> make_structure(std::size_t family, std::uint64_t seed) {
  switch (family) {
    case 0: return acs::gen_uniform_random<float>(4000, 4000, 5.0, 1.5, seed);
    case 1: return acs::gen_uniform_local<float>(4000, 4000, 6.0, 2.0, 96, seed);
    case 2: return acs::gen_powerlaw<float>(3000, 3000, 6.0, 1.6, 150, seed);
    case 3: return acs::gen_block_dense<float>(800, 800, 8, 2, seed);
    case 4: return acs::gen_rmat<float>(10, 6.0, 0.57, 0.19, 0.19, seed);
    case 5: return acs::gen_stencil_2d<float>(60, 60, seed);
    case 6: return acs::gen_stencil_3d<float>(14, 14, 14, seed);
    default: return acs::gen_banded<float>(5000, 2, seed);
  }
}

struct Arrival {
  double send_s = 0.0;     ///< scheduled wall offset from the window start
  double virtual_s = 0.0;  ///< arrival on the virtual timeline
  std::size_t tenant = 0;
  std::size_t structure = 0;  ///< index into Inputs::structures
};

struct Inputs {
  std::vector<Csr<float>> structures;  ///< kRecurring first, then novel ones
  std::vector<Arrival> arrivals;
};

/// kWallRate·seconds Poisson arrivals over the window (uniform order
/// statistics: a Poisson process conditioned on its count). Recurring
/// structures take turns; every kNovelEvery-th arrival is a new structure.
Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  std::mt19937_64 rng(derive_seed(seed, 100));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t f = 0; f < kRecurring; ++f)
    in.structures.push_back(make_structure(f % kFamilies, derive_seed(seed, 200 + f)));
  const auto n = static_cast<std::size_t>(std::lround(kWallRate * seconds));
  std::vector<double> times(n);
  for (auto& t : times) t = unit(rng) * seconds;
  std::sort(times.begin(), times.end());
  for (std::size_t i = 0; i < n; ++i) {
    Arrival a;
    a.send_s = times[i];
    a.virtual_s = times[i] * kWallRate / kVirtualRate;
    const double u = unit(rng);
    a.tenant = u < kTenants[0].share ? 0
               : u < kTenants[0].share + kTenants[1].share ? 1 : 2;
    if (i % kNovelEvery == kNovelEvery - 1) {
      a.structure = in.structures.size();
      in.structures.push_back(make_structure((i / kNovelEvery) % kRandomFamilies,
                                             derive_seed(seed, 1000 + i)));
    } else {
      a.structure = (i - i / kNovelEvery) % kRecurring;
    }
    in.arrivals.push_back(a);
  }
  return in;
}

acs::serve::ServerConfig server_config() {
  acs::serve::ServerConfig sc;
  sc.engine.workers = kWorkers;
  sc.admission.executors = kExecutors;
  for (const auto& t : kTenants) sc.tenants.push_back({t.name, t.weight, 0.0, 0.0});
  return sc;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Inputs plus a server whose recurring structures are already tuned.
struct Setup {
  Inputs in;
  std::unique_ptr<Server> server;
  double warm_end_s = 0.0;  ///< virtual time after the warm-up submissions
};

Setup make_setup(std::uint64_t seed, double seconds, Report& rep) {
  Setup s;
  s.in = make_inputs(seed, seconds);
  s.server = std::make_unique<Server>(server_config());
  // Two passes: the first submission of a structure runs degraded and
  // requests its tune, the second runs on (and, if the tuner thread is
  // behind, computes) the full overlay, so the window starts fully warm.
  std::vector<acs::serve::ServeHandle<float>> warm;
  double v = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t f = 0; f < kRecurring; ++f) {
      v += 1.0 / kVirtualRate;
      warm.push_back(s.server->submit(s.in.structures[f], s.in.structures[f],
                                      {kTenants[1].name, 0, v, kInf}));
    }
    s.server->drain();
  }
  for (std::size_t f = 0; f < warm.size(); ++f)
    if (!warm[f].result().served())
      rep.fail("warm-up job " + std::to_string(f) + " not served");
  s.warm_end_s = v + 1.0 / kVirtualRate;
  return s;
}

using OverlayKey = std::tuple<std::size_t, int, int, acs::index_t, int, bool>;
OverlayKey overlay_key(std::size_t structure, const acs::TunedParams& t) {
  return {structure, t.nnz_per_block, t.retain_per_thread, t.long_row_threshold,
          t.path_merge_max_chunks, t.valid};
}

struct Reference {
  Csr<float> c;
  acs::SpgemmStats stats;
};

/// Direct products the served results are checked against, keyed by
/// (structure, overlay). Pre-built from the overlays the server is expected
/// to choose (full tune for recurring structures, budgeted cold tune for
/// novel ones); anything else is computed on demand.
class References {
 public:
  explicit References(const Inputs& in) : in_(in) {}

  const Reference& get(std::size_t structure, const acs::TunedParams& t) {
    const auto key = overlay_key(structure, t);
    auto it = refs_.find(key);
    if (it == refs_.end()) {
      acs::Config cfg;
      t.apply(cfg);
      Reference r;
      r.c = acs::multiply(in_.structures[structure], in_.structures[structure],
                          cfg, &r.stats);
      it = refs_.emplace(key, std::move(r)).first;
    }
    return it->second;
  }
  [[nodiscard]] bool has(std::size_t structure, const acs::TunedParams& t) const {
    return refs_.count(overlay_key(structure, t)) != 0;
  }

 private:
  const Inputs& in_;
  std::map<OverlayKey, Reference> refs_;
};

/// Per-structure tuner and estimator timings; pre-builds the references.
struct ProbeTimes {
  std::vector<double> features_us, cold_us, full_us, plan_us;
};

ProbeTimes prebuild_references(const Setup& s, References& refs, Report& rep) {
  ProbeTimes pt;
  const acs::tune::TunerOptions opts;
  const acs::tune::AutoTuner tuner(opts);
  for (std::size_t i = 0; i < s.in.structures.size(); ++i) {
    const auto& m = s.in.structures[i];
    auto t0 = Clock::now();
    const auto f = acs::tune::extract_features(m, m, opts.sample_stride,
                                               opts.min_samples);
    pt.features_us.push_back(1e6 * seconds_since(t0));
    t0 = Clock::now();
    const auto cold = tuner.choose_budgeted(f, acs::Config{}, sizeof(float), 0);
    pt.cold_us.push_back(1e6 * seconds_since(t0));
    acs::TunedParams full;
    if (i < kRecurring) {  // only recurring structures reach the full tune
      t0 = Clock::now();
      full = tuner.choose(f, acs::Config{}, sizeof(float));
      pt.full_us.push_back(1e6 * seconds_since(t0));
    }
    t0 = Clock::now();
    const auto plan = acs::estimate::plan_pool_bytes(m, m, acs::estimate::PoolSizingParams{});
    pt.plan_us.push_back(1e6 * seconds_since(t0));
    g_keep = g_keep + plan.recommended_bytes;
    const auto& ref = refs.get(i, i < kRecurring ? full : cold);
    const auto vr = acs::verify_product(ref.c, floor_multiply(m, m), 1e-4);
    if (!vr.ok()) rep.fail("structure " + std::to_string(i) + ": floor mismatch: " + vr.summary());
  }
  return pt;
}

struct WindowResult {
  std::size_t offered = 0, admitted = 0, served = 0, good = 0, shed = 0,
              missed = 0, degraded = 0;
  double window_s = 0.0, products = 0.0, sim_s = 0.0, host_s = 0.0;
  double min_mp_load = 1.0;
  double predicted_s = 0.0;  ///< summed admission price of offered jobs
  std::vector<double> latency_s, submit_s, lag_s, pool_ratio;
  std::array<double, acs::trace::kNumStages> model_stage_s{};
};

/// Open loop: the client sends each arrival at its scheduled wall time,
/// polls outstanding handles between sends, and checks every served
/// result against the direct multiply under its `tuned_applied` overlay.
WindowResult run_window(Setup& s, References& refs, const acs::Config& cfg,
                        Report& rep) {
  struct Outstanding {
    std::size_t arrival;
    acs::serve::ServeHandle<float> handle;
  };
  WindowResult w;
  std::vector<Outstanding> open;
  std::vector<Outstanding> deferred;  ///< served, reference not built yet
  Clock::time_point last_ready{};
  const auto t0 = Clock::now();

  const auto settle = [&](Outstanding& o, bool defer_ok) {
    const Arrival& a = s.in.arrivals[o.arrival];
    auto& r = o.handle.result();
    if (r.status == acs::serve::ServeStatus::kFailed) {
      rep.fail("served job failed");
      return;
    }
    if (r.status == acs::serve::ServeStatus::kShed) ++w.shed;
    if (!r.served()) return;
    if (defer_ok && !refs.has(a.structure, r.tuned_applied)) {
      deferred.push_back(o);
      return;
    }
    if (!r.job.c.equals_exact(refs.get(a.structure, r.tuned_applied).c))
      rep.fail("served result differs from the direct multiply under its overlay");
  };

  const auto record = [&](Outstanding& o, Clock::time_point ready) {
    const Arrival& a = s.in.arrivals[o.arrival];
    auto& r = o.handle.result();
    if (r.admission.admitted()) ++w.admitted;
    w.predicted_s += r.admission.predicted_cost_s;
    if (r.degraded) ++w.degraded;
    if (r.deadline_missed) ++w.missed;
    if (r.served()) {
      ++w.served;
      if (!r.deadline_missed) ++w.good;
      w.latency_s.push_back(seconds_between(t0, ready) - a.send_s);
      if (ready > last_ready) last_ready = ready;
      const auto& st = r.job.stats;
      w.products += static_cast<double>(st.intermediate_products);
      w.sim_s += st.sim_time_s;
      w.host_s += st.wall_time_s;
      w.min_mp_load = std::min(w.min_mp_load, st.multiprocessor_load);
      for (std::size_t k = 0; k < acs::trace::kNumStages; ++k)
        w.model_stage_s[k] += st.stage_time(acs::trace::kStageNames[k]);
      if (r.degraded && st.pool_used_bytes > 0)
        w.pool_ratio.push_back(static_cast<double>(st.pool_estimate_bytes) /
                               static_cast<double>(st.pool_used_bytes));
    }
    settle(o, true);
  };

  const auto poll = [&] {
    const auto now = Clock::now();
    for (std::size_t i = 0; i < open.size();) {
      if (open[i].handle.ready()) {
        record(open[i], now);
        open[i] = std::move(open.back());
        open.pop_back();
      } else {
        ++i;
      }
    }
  };

  for (std::size_t i = 0; i < s.in.arrivals.size(); ++i) {
    const Arrival& a = s.in.arrivals[i];
    for (;;) {
      const double until = a.send_s - seconds_since(t0);
      if (until <= 0.0) break;
      poll();
      std::this_thread::sleep_for(std::chrono::duration<double>(std::min(until, 1e-4)));
    }
    w.lag_s.push_back(seconds_since(t0) - a.send_s);
    const auto& m = s.in.structures[a.structure];
    const Tenant& t = kTenants[a.tenant];
    const double v = s.warm_end_s + a.virtual_s;
    const auto ts = Clock::now();
    auto h = s.server->submit(m, m, {t.name, t.priority, v, v + t.deadline_s}, cfg);
    w.submit_s.push_back(seconds_since(ts));
    open.push_back({i, std::move(h)});
    ++w.offered;
    poll();
  }
  s.server->drain();
  while (!open.empty()) {
    poll();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  w.window_s = seconds_between(t0, last_ready);
  for (auto& o : deferred) settle(o, false);
  rep.attempted(w.offered);
  return w;
}

void set_end_to_end(const WindowResult& w, Report& rep) {
  rep.set("jobs_per_s", static_cast<double>(w.served) / w.window_s, "1/s");
  rep.set("wall_gflops", 2.0 * w.products / w.window_s / 1e9, "GFLOP/s");
  rep.set("latency_p50_ms", 1e3 * percentile(w.latency_s, 50.0), "ms");
  rep.set("latency_p99_ms", 1e3 * percentile(w.latency_s, 99.0), "ms");
  rep.set("model_gflops", 2.0 * w.products / w.sim_s / 1e9, "GFLOP/s");
  rep.set("goodput_frac",
          static_cast<double>(w.good) / static_cast<double>(w.offered), "ratio");
  rep.note("latency_samples", std::to_string(w.latency_s.size()));
  std::ostringstream os;
  os << "{\"offered\": " << w.offered << ", \"admitted\": " << w.admitted
     << ", \"served\": " << w.served << ", \"deadline_missed\": " << w.missed
     << ", \"shed\": " << w.shed << ", \"degraded\": " << w.degraded
     << ", \"mean_predicted_s\": " << w.predicted_s / static_cast<double>(w.offered)
     << ", \"mean_sim_s\": " << w.sim_s / static_cast<double>(w.served)
     << ", \"mean_host_s\": " << w.host_s / static_cast<double>(w.served)
     << ", \"gen_lag_ms_p99\": " << 1e3 * percentile(w.lag_s, 99.0) << "}";
  rep.note("serve", os.str());
}

}  // namespace

void run_serve_sim(const Options& opt, Report& rep) {
  std::vector<double> times;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};
    const auto t0 = Clock::now();
    s = make_setup(opt.seed, opt.seconds, rep);
    times.push_back(seconds_since(t0));
  }
  rep.set("setup_s", median(times), "s");
  References refs(s.in);
  auto t0 = Clock::now();
  (void)prebuild_references(s, refs, rep);
  std::cerr << "serve_sim: " << s.in.arrivals.size() << " arrivals, "
            << s.in.structures.size() << " structures; references built in "
            << seconds_since(t0) << " s\n";
  t0 = Clock::now();
  const WindowResult w = run_window(s, refs, acs::Config{}, rep);
  std::cerr << "serve_sim: window and checks took " << seconds_since(t0) << " s\n";
  set_end_to_end(w, rep);
}

void trace_serve_sim(const Options& opt, Report& rep) {
  Setup s = make_setup(opt.seed, opt.seconds, rep);
  References refs(s.in);
  const ProbeTimes pt = prebuild_references(s, refs, rep);
  rep.set("tune.features_us", median(pt.features_us), "us");
  rep.set("tune.choose_cold_us", median(pt.cold_us), "us");
  rep.set("tune.choose_full_us", median(pt.full_us), "us");
  rep.set("estimate.plan_us", median(pt.plan_us), "us");

  acs::trace::TraceSession session;
  acs::Config cfg;
  cfg.trace = &session;
  const WindowResult w = run_window(s, refs, cfg, rep);
  const double served = static_cast<double>(std::max<std::size_t>(w.served, 1));
  const auto self = stage_self_times(session.spans());
  for (std::size_t k = 0; k < self.size(); ++k) {
    const std::string stage = acs::trace::kStageNames[k];
    rep.set("core.serve_sim." + stage + ".wall_s", self[k] / served, "s");
    rep.set("core.serve_sim." + stage + ".model_s", w.model_stage_s[k] / served, "s");
  }
  const auto c = session.counters_snapshot();
  rep.set("core.serve_sim.esc_iterations", static_cast<double>(c.esc_iterations), "count");
  rep.set("core.serve_sim.chunks_written", static_cast<double>(c.chunks_written), "count");
  rep.set("core.serve_sim.merge_rows.multi",
          static_cast<double>(c.merge_case_rows[acs::trace::kMultiMerge]), "count");
  rep.set("core.serve_sim.merge_rows.path",
          static_cast<double>(c.merge_case_rows[acs::trace::kPathMerge]), "count");
  rep.set("core.serve_sim.merge_rows.search",
          static_cast<double>(c.merge_case_rows[acs::trace::kSearchMerge]), "count");
  rep.set("core.serve_sim.long_row_chunks", static_cast<double>(c.long_row_chunks), "count");
  rep.set("core.serve_sim.restarts", static_cast<double>(c.restarts), "count");
  rep.set("core.serve_sim.pool_denials", static_cast<double>(c.pool_denials), "count");

  rep.set("sim.host_per_model", w.host_s / w.sim_s, "ratio");
  rep.set("sim.mp_load", w.min_mp_load, "ratio");
  rep.set("estimate.pool_ratio_p50", percentile(w.pool_ratio, 50.0), "ratio");
  rep.set("estimate.pool_ratio_max",
          w.pool_ratio.empty() ? 0.0 : *std::max_element(w.pool_ratio.begin(), w.pool_ratio.end()),
          "ratio");

  // Tuner regret on the modeled clock: each recurring structure under the
  // server's warm overlay vs a direct untuned multiply.
  std::vector<double> regret;
  const acs::tune::TunerOptions opts;
  const acs::tune::AutoTuner tuner(opts);
  for (std::size_t i = 0; i < kRecurring; ++i) {
    const auto& m = s.in.structures[i];
    const auto f = acs::tune::extract_features(m, m, opts.sample_stride, opts.min_samples);
    const double tuned = refs.get(i, tuner.choose(f, acs::Config{}, sizeof(float))).stats.sim_time_s;
    const double untuned = refs.get(i, acs::TunedParams{}).stats.sim_time_s;
    regret.push_back(tuned / untuned);
  }
  rep.set("tune.model_regret_geomean", geomean(regret), "ratio");
  rep.set("tune.model_regret_max", *std::max_element(regret.begin(), regret.end()), "ratio");

  std::vector<double> submit_us;
  for (const double v : w.submit_s) submit_us.push_back(1e6 * v);
  rep.set("serve.submit_us_p50", percentile(submit_us, 50.0), "us");
  rep.set("serve.submit_us_p99", percentile(submit_us, 99.0), "us");
  const double offered = static_cast<double>(w.offered);
  rep.set("serve.admitted_frac", static_cast<double>(w.admitted) / offered, "ratio");
  rep.set("serve.shed_frac", static_cast<double>(w.shed) / offered, "ratio");
  rep.set("serve.deadline_miss_frac", static_cast<double>(w.missed) / offered, "ratio");
  rep.set("serve.degraded_frac",
          static_cast<double>(w.degraded) / static_cast<double>(std::max<std::size_t>(w.admitted, 1)),
          "ratio");
  std::vector<double> share;
  for (const auto& t : s.server->stats().tenants)
    share.push_back(t.served_cost_s / t.weight);
  double sum = 0.0, sq = 0.0;
  for (const double x : share) {
    sum += x;
    sq += x * x;
  }
  rep.set("serve.jain", sq > 0.0 ? sum * sum / (static_cast<double>(share.size()) * sq) : 1.0,
          "ratio");
  rep.set("serve.gen_lag_ms_p99", 1e3 * percentile(w.lag_s, 99.0), "ms");
}

}  // namespace perfbench
