/// \file mixed_native.cpp
/// Workload mixed_native: thousands of small double jobs over eight
/// mid-size structures, resubmitted with rescaled values (the AMG setup
/// pattern), through Engine<double> on NativeCpu with 4 workers. One client
/// thread keeps 4 jobs outstanding. After warm-up every job is a plan-cache
/// hit, so per-job runtime costs (operand copies, fingerprint, queue
/// handoff, nested block threads) dominate instead of kernel work.

#include <cmath>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/acspgemm.hpp"
#include "matrix/coo.hpp"
#include "matrix/generators.hpp"
#include "matrix/stats.hpp"
#include "runtime/engine.hpp"
#include "runtime/fingerprint.hpp"
#include "suite/verify.hpp"

namespace perfbench {
namespace {

using acs::Csr;
using Engine = acs::runtime::Engine<double>;

constexpr unsigned kOutstanding = 4;
/// A job meets the workload's service level if it finishes within this.
constexpr double kLatencyLimitS = 0.05;
constexpr int kSetupRepeats = 5;
/// Value scales 2^e: products of power-of-two-scaled operands are exact
/// multiples of the unscaled product, so every job can be checked bit-exactly.
constexpr int kScales[] = {-2, -1, 0, 1, 2};
constexpr std::size_t kMaxJobs = 1u << 20;
/// Keeps timed pure calls from being optimized away.
volatile std::uint64_t g_sink = 0;

struct Structure {
  std::string name;
  Csr<double> a, b;
  bool square = true;  ///< A·A (else A·P with a fixed P)
  acs::offset_t products = 0;
  Csr<double> ref;  ///< SimTitanXp product of the unscaled operands
};

struct Operands {
  Csr<double> a, b;
  double factor = 1.0;  ///< product = factor · ref
};

Csr<double> prolongation(acs::index_t fine) {
  acs::Coo<double> p;
  p.rows = fine;
  p.cols = (fine + 3) / 4;
  for (acs::index_t i = 0; i < fine; ++i) p.push(i, i / 4, 1.0);
  return p.to_csr();
}

std::vector<Structure> make_structures(std::uint64_t seed) {
  std::vector<Structure> s;
  const auto sq = [&](std::string name, Csr<double> a) {
    Structure x;
    x.name = std::move(name);
    x.b = a;
    x.a = std::move(a);
    s.push_back(std::move(x));
  };
  sq("stencil2d", acs::gen_stencil_2d<double>(80, 80, derive_seed(seed, 11)));
  sq("stencil3d", acs::gen_stencil_3d<double>(18, 18, 18, derive_seed(seed, 12)));
  sq("uniform", acs::gen_uniform_random<double>(6000, 6000, 6.0, 2.0,
                                                derive_seed(seed, 13)));
  sq("local", acs::gen_uniform_local<double>(6000, 6000, 8.0, 2.0, 128,
                                             derive_seed(seed, 14)));
  sq("powerlaw", acs::gen_powerlaw<double>(5000, 5000, 6.0, 1.6, 200,
                                           derive_seed(seed, 15)));
  sq("blockdense", acs::gen_block_dense<double>(1200, 1200, 8, 2,
                                                derive_seed(seed, 16)));
  sq("rmat", acs::gen_rmat<double>(11, 6.0, 0.57, 0.19, 0.19,
                                   derive_seed(seed, 17)));
  Structure g;
  g.name = "galerkin";
  g.a = acs::gen_banded<double>(8000, 3, derive_seed(seed, 18));
  g.b = prolongation(8000);
  g.square = false;
  s.push_back(std::move(g));
  for (auto& x : s) x.products = acs::intermediate_products(x.a, x.b);
  return s;
}

std::vector<std::vector<Operands>> make_operands(const std::vector<Structure>& s) {
  std::vector<std::vector<Operands>> ops(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (const int e : kScales) {
      const double scale = std::ldexp(1.0, e);
      Operands o;
      o.a = s[i].a;
      for (auto& v : o.a.values) v *= scale;
      o.b = s[i].square ? o.a : s[i].b;
      o.factor = s[i].square ? scale * scale : scale;
      ops[i].push_back(std::move(o));
    }
  }
  return ops;
}

acs::runtime::EngineConfig engine_config() {
  acs::runtime::EngineConfig ec;
  ec.arch = acs::arch::ArchId::kNativeCpu;
  ec.workers = kOutstanding;
  return ec;
}

bool matches_scaled(const Csr<double>& c, const Csr<double>& ref, double f) {
  if (c.rows != ref.rows || c.cols != ref.cols || c.row_ptr != ref.row_ptr ||
      c.col_idx != ref.col_idx)
    return false;
  for (std::size_t i = 0; i < c.values.size(); ++i)
    if (c.values[i] != ref.values[i] * f) return false;
  return true;
}

struct Setup {
  std::vector<Structure> structures;
  std::vector<std::vector<Operands>> operands;
  std::unique_ptr<Engine> engine;
  std::vector<Csr<double>> warm_c;
};

Setup make_setup(std::uint64_t seed, Report& rep) {
  Setup s;
  s.structures = make_structures(seed);
  s.operands = make_operands(s.structures);
  s.engine = std::make_unique<Engine>(engine_config());
  std::vector<acs::runtime::JobHandle<double>> warm;
  for (const auto& x : s.structures) warm.push_back(s.engine->submit(x.a, x.b));
  for (std::size_t i = 0; i < warm.size(); ++i) {
    try {
      s.warm_c.push_back(std::move(warm[i].result().c));
    } catch (const std::exception& e) {
      rep.fail(s.structures[i].name + " warm-up threw: " + e.what());
      s.warm_c.emplace_back();
    }
  }
  return s;
}

/// References: a SimTitanXp multiply per structure, which every warm-up
/// product must equal bit-exactly, plus the floor within tolerance.
/// Returns modeled GFLOP/s over the structures.
double build_references(Setup& s, Report& rep) {
  double products = 0.0, sim_s = 0.0;
  for (std::size_t i = 0; i < s.structures.size(); ++i) {
    auto& x = s.structures[i];
    acs::SpgemmStats st;
    x.ref = acs::multiply(x.a, x.b, acs::Config{}, &st);
    products += static_cast<double>(st.intermediate_products);
    sim_s += st.sim_time_s;
    if (!s.warm_c[i].equals_exact(x.ref))
      rep.fail(x.name + ": native product differs from SimTitanXp");
    const auto vr = acs::verify_product(x.ref, floor_multiply(x.a, x.b), 1e-10);
    if (!vr.ok()) rep.fail(x.name + ": floor mismatch: " + vr.summary());
    rep.attempted(1);
  }
  return sim_s > 0.0 ? 2.0 * products / sim_s / 1e9 : 0.0;
}

struct LoopResult {
  std::size_t jobs = 0;
  std::size_t good = 0;
  double window_s = 0.0;
  double products = 0.0;
  std::vector<double> latency_s, exec_s, submit_s;
};

/// Closed loop: one client keeps kOutstanding jobs in flight for `seconds`,
/// cycling structures and value scales; completion is stamped on the worker
/// (completion hook) and every output is checked on the client.
LoopResult closed_loop(const Setup& s, double seconds, const acs::Config& cfg,
                       std::size_t& seq, Report& rep) {
  struct Pending {
    std::size_t idx, structure, scale;
    acs::runtime::JobHandle<double> handle;
    Clock::time_point submitted;
  };
  std::vector<Clock::time_point> done(kMaxJobs);
  std::mutex m;
  std::condition_variable cv;
  unsigned outstanding = 0;
  std::deque<Pending> pending;
  LoopResult r;
  Clock::time_point last_done{};

  const auto settle = [&](Pending& p) {
    const auto& x = s.structures[p.structure];
    bool ok = true;
    double exec = 0.0;
    try {
      auto& res = p.handle.result();
      exec = res.stats.wall_time_s;
      if (!matches_scaled(res.c, x.ref, s.operands[p.structure][p.scale].factor)) {
        rep.fail(x.name + ": job output differs from the scaled reference");
        ok = false;
      }
    } catch (const std::exception& e) {
      rep.fail(x.name + " job threw: " + e.what());
      ok = false;
    }
    const double l = seconds_between(p.submitted, done[p.idx]);
    if (done[p.idx] > last_done) last_done = done[p.idx];
    r.latency_s.push_back(l);
    r.exec_s.push_back(exec);
    r.products += static_cast<double>(x.products);
    ++r.jobs;
    if (ok && l <= kLatencyLimitS) ++r.good;
  };

  const auto t0 = Clock::now();
  std::size_t local = 0;
  while (seconds_since(t0) < seconds && local < kMaxJobs) {
    {
      std::unique_lock lock(m);
      cv.wait(lock, [&] { return outstanding < kOutstanding; });
      ++outstanding;
    }
    const std::size_t structure = seq % s.structures.size();
    const std::size_t scale = (seq / s.structures.size()) % std::size(kScales);
    ++seq;
    const auto& o = s.operands[structure][scale];
    const std::size_t idx = local++;
    const auto ts = Clock::now();
    auto h = s.engine->submit(o.a, o.b, cfg,
                              [&done, &m, &cv, &outstanding, idx](auto&) {
                                done[idx] = Clock::now();
                                {
                                  std::lock_guard lock(m);
                                  --outstanding;
                                }
                                cv.notify_one();
                              });
    r.submit_s.push_back(seconds_since(ts));
    pending.push_back(Pending{idx, structure, scale, std::move(h), ts});
    while (!pending.empty() && pending.front().handle.ready()) {
      settle(pending.front());
      pending.pop_front();
    }
  }
  for (auto& p : pending) settle(p);
  r.window_s = seconds_between(t0, last_done);
  rep.attempted(r.jobs);
  return r;
}

}  // namespace

void run_mixed_native(const Options& opt, Report& rep) {
  std::vector<double> times;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};
    const auto t0 = Clock::now();
    s = make_setup(opt.seed, rep);
    times.push_back(seconds_since(t0));
  }
  rep.set("setup_s", median(times), "s");
  const double model_gflops = build_references(s, rep);

  std::size_t seq = 0;
  const LoopResult r = closed_loop(s, opt.seconds, acs::Config{}, seq, rep);
  rep.set("jobs_per_s", static_cast<double>(r.jobs) / r.window_s, "1/s");
  rep.set("wall_gflops", 2.0 * r.products / r.window_s / 1e9, "GFLOP/s");
  rep.set("latency_p50_ms", 1e3 * percentile(r.latency_s, 50.0), "ms");
  rep.set("latency_p99_ms", 1e3 * percentile(r.latency_s, 99.0), "ms");
  rep.set("goodput_frac",
          static_cast<double>(r.good) / static_cast<double>(r.jobs), "ratio");
  rep.set("model_gflops", model_gflops, "GFLOP/s");
  rep.note("latency_samples", std::to_string(r.latency_s.size()));
  std::ostringstream st;
  st << "{";
  for (std::size_t i = 0; i < s.structures.size(); ++i)
    st << (i ? ", " : "") << "\"" << s.structures[i].name
       << "\": {\"products\": " << s.structures[i].products
       << ", \"nnz_a\": " << s.structures[i].a.nnz() << "}";
  st << "}";
  rep.note("structures", st.str());
}

void trace_mixed_native(const Options& opt, Report& rep) {
  Setup s = make_setup(opt.seed, rep);
  (void)build_references(s, rep);

  // Bench-timed public call: the O(nnz) structure fingerprint per submit.
  std::vector<double> fp_us;
  for (const auto& x : s.structures) {
    constexpr int kReps = 50;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int k = 0; k < kReps; ++k)
      sink += acs::runtime::fingerprint(x.a, x.b, acs::arch::ArchId::kNativeCpu)
                  .row_ptr_hash;
    fp_us.push_back(1e6 * seconds_since(t0) / kReps);
    g_sink = sink;
  }
  rep.set("runtime.fingerprint_us", median(fp_us), "us");

  // Traced pass: stage spans on every job through one shared session.
  std::size_t seq = 0;
  const double traced_s = std::max(1.0, opt.seconds / 2.0);
  acs::trace::TraceSession session;
  acs::Config traced_cfg;
  traced_cfg.trace = &session;
  const LoopResult r = closed_loop(s, traced_s, traced_cfg, seq, rep);
  const auto self = stage_self_times(session.spans());
  for (std::size_t k = 0; k < self.size(); ++k)
    rep.set(std::string("core.mixed_native.") + acs::trace::kStageNames[k] +
                ".wall_s",
            self[k] / static_cast<double>(r.jobs), "s");
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < r.latency_s.size(); ++i)
    wait_ms.push_back(1e3 * std::max(0.0, r.latency_s[i] - r.exec_s[i]));
  std::vector<double> submit_us;
  for (const double v : r.submit_s) submit_us.push_back(1e6 * v);
  std::vector<double> exec_ms;
  for (const double v : r.exec_s) exec_ms.push_back(1e3 * v);
  rep.set("runtime.submit_us_p50", median(submit_us), "us");
  rep.set("runtime.exec_ms_p50", median(exec_ms), "ms");
  rep.set("runtime.wait_ms_p50", percentile(wait_ms, 50.0), "ms");
  rep.set("runtime.wait_ms_p99", percentile(wait_ms, 99.0), "ms");
  rep.set("runtime.plan_hit_rate", s.engine->plan_counters().hit_rate(), "ratio");
  const auto ac = s.engine->arena_counters();
  const double pool_total = static_cast<double>(ac.reused_bytes + ac.fresh_bytes);
  rep.set("runtime.pool_reuse_frac",
          pool_total > 0.0 ? static_cast<double>(ac.reused_bytes) / pool_total : 0.0,
          "ratio");

  // Trace overhead: untraced, stage spans and detail spans, interleaved.
  const double phase_s = std::max(0.5, opt.seconds / 8.0);
  double jobs[3] = {0, 0, 0}, secs[3] = {0, 0, 0};
  for (int rep_i = 0; rep_i < 2; ++rep_i) {
    for (int mode = 0; mode < 3; ++mode) {
      acs::trace::TraceSession phase_session;
      phase_session.set_detail(mode == 2);
      acs::Config cfg;
      if (mode > 0) cfg.trace = &phase_session;
      const LoopResult p = closed_loop(s, phase_s, cfg, seq, rep);
      jobs[mode] += static_cast<double>(p.jobs);
      secs[mode] += p.window_s;
    }
  }
  const double untraced = jobs[0] / secs[0];
  rep.set("trace.overhead_frac", untraced / (jobs[1] / secs[1]) - 1.0, "ratio");
  rep.set("trace.detail_overhead_frac", untraced / (jobs[2] / secs[2]) - 1.0,
          "ratio");
}

}  // namespace perfbench
