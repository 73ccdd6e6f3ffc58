/// \file bench_service.cpp
/// Acceptance bench for the multi-tenant serving layer (src/serve). Four
/// phases, each gating one of the PR's serving criteria where the numbers
/// are produced:
///  * fair_overload — three equal-weight tenants flood an open-loop trace;
///    Jain's fairness index over the predicted cost-seconds each tenant got
///    dispatched inside the contended half of the virtual timeline must be
///    >= 0.9 (DRR's whole point: request counts don't matter, cost does).
///  * low_load — paced arrivals with generous deadlines; the p99 virtual
///    latency of admitted jobs stays within the offered deadline slack and
///    the deadline miss rate is < 1% (zero misses in --smoke, which is the
///    CI configuration).
///  * ceiling — the same flood twice, unconstrained vs. under an arena
///    ceiling with shedding enabled, in five slices that alternate which
///    flood runs first: the constrained server must shed and keep serving,
///    not stall — every admitted job accounted for on every slice, and on
///    the median slice by wall ratio a drain time within 1.5x (+0.25 s) of
///    the unconstrained run.
///  * bit_identity — every served result from every phase, plus an explicit
///    degraded-then-tuned pair and a rejected-then-resubmitted sequence, is
///    compared `equals_exact` against a direct `acs::multiply` under the
///    reconstructed effective Config.
/// All latencies and fairness windows are *virtual* (the deterministic
/// decision timeline), so the gated numbers are reproducible run to run;
/// wall clocks appear only in the ceiling phase's stall check. Emits JSON
/// (stdout + bench_out/bench_service.json) with p50/p99 per tenant, fairness
/// index and reject/shed counters.
///
/// Run:  ./bench_service [jobs_per_tenant] [engine_workers] [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"
#include "serve/server.hpp"
#include "suite/bench_runner.hpp"
#include "tune/features.hpp"
#include "tune/predictor.hpp"

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using acs::Config;
using acs::Csr;
using acs::serve::ServeHandle;
using acs::serve::ServerConfig;
using acs::serve::ServeStatus;
using acs::serve::SubmitInfo;
using acs::serve::TenantConfig;

/// The serving layer's price for C = A·A (same predictor path as
/// Server::submit) — used to shape arrival schedules in virtual seconds.
double probe_cost(const Csr<double>& a) {
  const acs::tune::TunerOptions opts;
  const auto f =
      acs::tune::extract_features(a, a, opts.sample_stride, opts.min_samples);
  return acs::tune::predict_makespan_s(f, Config{}, sizeof(double));
}

double jain_index(const std::vector<double>& x) {
  double sum = 0.0, sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sum_sq);
}

/// Percentile over a copy (nearest-rank on the sorted sample).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct TenantLatency {
  std::vector<double> latency_s;  ///< virtual latencies of served jobs
  std::uint64_t misses = 0;
};

// --- Phase 1: fairness under overload -------------------------------------

struct FairnessReport {
  double jain = 1.0;
  std::vector<double> window_cost_s;  ///< per tenant, contended window
  std::size_t queue_depth_peak = 0;
  bool ok = false;
};

FairnessReport run_fair_overload(const Csr<double>& a, double c,
                                 std::size_t jobs_per_tenant,
                                 unsigned workers,
                                 std::vector<ServeHandle<double>>& served) {
  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  ServerConfig scfg;
  scfg.engine.workers = workers;
  scfg.tuning = false;
  scfg.admission.executors = 1;  // one modeled executor: pure DRR ordering
  scfg.drr_quantum_s = c / 4.0;
  for (const auto& n : names) scfg.tenants.push_back(TenantConfig{n, 1.0, 0.0, 0.0});
  acs::serve::Server<double> server(scfg);

  std::vector<std::pair<std::size_t, ServeHandle<double>>> handles;
  for (std::size_t j = 0; j < jobs_per_tenant; ++j) {
    for (std::size_t t = 0; t < names.size(); ++t) {
      // Open loop, heavily contended: arrivals 100x faster than service.
      const double arrival =
          0.01 * c * static_cast<double>(j * names.size() + t);
      handles.emplace_back(
          t, server.submit(a, a, SubmitInfo{names[t], 0, arrival, kInf}));
    }
  }
  server.drain();

  // Fairness is judged inside the contended window: the first half of the
  // virtual timeline, where every tenant still has queued demand.
  double t_end = 0.0;
  for (auto& [t, h] : handles)
    t_end = std::max(t_end, h.result().virtual_finish_s);
  const double window = t_end / 2.0;
  FairnessReport rep;
  rep.window_cost_s.assign(names.size(), 0.0);
  for (auto& [t, h] : handles) {
    auto& r = h.result();
    if (r.served() && r.virtual_start_s <= window)
      rep.window_cost_s[t] += r.admission.predicted_cost_s;
    if (r.served()) served.push_back(h);
  }
  rep.jain = jain_index(rep.window_cost_s);
  rep.queue_depth_peak = server.stats().queue_depth_peak;
  rep.ok = rep.jain >= 0.9;
  return rep;
}

// --- Phase 2: deadlines at low load ---------------------------------------

struct DeadlineReport {
  std::map<std::string, TenantLatency> tenants;
  std::uint64_t admitted = 0;
  std::uint64_t misses = 0;
  std::uint64_t degraded = 0;
  double deadline_slack_s = 0.0;
  double p99_s = 0.0;
  bool ok = false;
};

DeadlineReport run_low_load(const Csr<double>& a, const Csr<double>& b,
                            double c, std::size_t jobs_per_tenant,
                            unsigned workers, bool smoke,
                            std::vector<ServeHandle<double>>& served,
                            std::vector<ServeHandle<double>>& degraded_out) {
  ServerConfig scfg;
  scfg.engine.workers = workers;
  scfg.tuning = true;  // exercise the graceful-degradation counters
  scfg.tune_latency_s = 2.0 * c;
  scfg.admission.executors = 1;
  scfg.tenants = {TenantConfig{"interactive", 2.0, 0.0, 0.0},
                  TenantConfig{"batch", 1.0, 0.0, 0.0}};
  acs::serve::Server<double> server(scfg);

  DeadlineReport rep;
  rep.deadline_slack_s = 4.0 * c;
  std::vector<std::pair<std::string, ServeHandle<double>>> handles;
  for (std::size_t j = 0; j < 2 * jobs_per_tenant; ++j) {
    const std::string tenant = j % 2 ? "batch" : "interactive";
    const auto& am = j % 2 ? b : a;
    // Paced arrivals: three service times apart, so the backlog stays
    // shallow and every deadline is predicted (and then observed) to hold.
    const double arrival = 3.0 * c * static_cast<double>(j);
    handles.emplace_back(
        tenant, server.submit(am, am,
                              SubmitInfo{tenant, 0, arrival,
                                         arrival + rep.deadline_slack_s}));
  }
  server.drain();

  std::vector<double> all;
  for (auto& [tenant, h] : handles) {
    auto& r = h.result();
    if (!r.admission.admitted()) continue;
    ++rep.admitted;
    if (r.deadline_missed) ++rep.misses;
    if (r.degraded) ++rep.degraded;
    if (r.served()) {
      rep.tenants[tenant].latency_s.push_back(r.virtual_latency_s());
      all.push_back(r.virtual_latency_s());
      served.push_back(h);
      if (r.degraded) degraded_out.push_back(h);
    }
    if (r.deadline_missed) ++rep.tenants[tenant].misses;
  }
  rep.p99_s = percentile(all, 99.0);
  const double miss_rate =
      rep.admitted ? static_cast<double>(rep.misses) /
                         static_cast<double>(rep.admitted)
                   : 0.0;
  rep.ok = rep.p99_s <= rep.deadline_slack_s &&
           (smoke ? rep.misses == 0 : miss_rate < 0.01);
  return rep;
}

// --- Phase 3: arena ceiling sheds, never stalls ---------------------------

constexpr int kCeilingSlices = 5;

/// The median slice's walls and ratio, and the counts every slice repeats.
struct CeilingReport {
  double unconstrained_wall_s = 0.0;
  double constrained_wall_s = 0.0;
  double wall_ratio = 0.0;
  std::vector<double> wall_ratio_slices;  ///< constrained / unconstrained
  double unconstrained_jobs_per_s = 0.0;
  double constrained_jobs_per_s = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t admitted = 0;
  bool ok = false;
};

acs::serve::ServeStats run_flood(const Csr<double>& a, double c,
                                 std::size_t jobs, unsigned workers,
                                 std::size_t ceiling_bytes, double& wall_s,
                                 std::vector<ServeHandle<double>>& served) {
  ServerConfig scfg;
  scfg.engine.workers = workers;
  scfg.tuning = false;
  scfg.admission.executors = 2;
  scfg.drr_quantum_s = c / 4.0;
  scfg.arena_ceiling_bytes = ceiling_bytes;
  scfg.shed_queue_jobs = ceiling_bytes ? 4 : 0;
  scfg.tenants = {TenantConfig{"alpha", 1.0, 0.0, 0.0},
                  TenantConfig{"beta", 1.0, 0.0, 0.0}};
  acs::serve::Server<double> server(scfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ServeHandle<double>> handles;
  for (std::size_t j = 0; j < jobs; ++j) {
    const double arrival = 0.05 * c * static_cast<double>(j);
    handles.push_back(server.submit(
        a, a,
        SubmitInfo{j % 2 ? "beta" : "alpha", static_cast<int>(j % 5),
                   arrival, kInf}));
  }
  server.drain();
  wall_s = wall_seconds(t0);
  for (auto& h : handles)
    if (h.result().served()) served.push_back(h);
  return server.stats();
}

CeilingReport run_ceiling(const Csr<double>& a, double c, std::size_t jobs,
                          unsigned workers,
                          std::vector<ServeHandle<double>>& served) {
  const std::size_t pool = acs::estimate_chunk_pool_bytes(a, a, Config{});
  // Room for one job's predicted pool but not two: the virtual timeline is
  // permanently memory-gated and must shed the overflow, not wedge.
  const std::size_t ceiling = pool + pool / 2;
  struct Slice {
    double base_s = 0.0, capped_s = 0.0;
    acs::serve::ServeStats base, capped;
  };
  CeilingReport rep;
  std::vector<Slice> slices(kCeilingSlices);
  bool accounted = true;
  for (int k = 0; k < kCeilingSlices; ++k) {
    Slice& sl = slices[static_cast<std::size_t>(k)];
    const bool base_first = k % 2 == 0;
    if (base_first)
      sl.base = run_flood(a, c, jobs, workers, 0, sl.base_s, served);
    sl.capped = run_flood(a, c, jobs, workers, ceiling, sl.capped_s, served);
    if (!base_first)
      sl.base = run_flood(a, c, jobs, workers, 0, sl.base_s, served);
    // Loses no admitted job: each is either completed or an accounted shed.
    accounted = accounted && sl.capped.shed > 0 &&
                sl.capped.completed + sl.capped.shed + sl.capped.failed ==
                    sl.capped.admitted;
    rep.wall_ratio_slices.push_back(sl.base_s > 0.0 ? sl.capped_s / sl.base_s
                                                    : 0.0);
  }
  std::vector<std::size_t> order(slices.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return rep.wall_ratio_slices[x] < rep.wall_ratio_slices[y];
  });
  const std::size_t median = order[order.size() / 2];
  const Slice& med = slices[median];
  rep.unconstrained_wall_s = med.base_s;
  rep.constrained_wall_s = med.capped_s;
  rep.wall_ratio = rep.wall_ratio_slices[median];
  rep.unconstrained_jobs_per_s =
      med.base_s > 0.0 ? static_cast<double>(med.base.completed) / med.base_s
                       : 0.0;
  rep.constrained_jobs_per_s =
      med.capped_s > 0.0
          ? static_cast<double>(med.capped.completed) / med.capped_s
          : 0.0;
  rep.shed = med.capped.shed;
  rep.completed = med.capped.completed;
  rep.admitted = med.capped.admitted;
  // Shed-not-stall: the capped run drains in comparable wall time (it does
  // strictly less multiplication work).
  rep.ok = accounted && med.capped_s <= 1.5 * med.base_s + 0.25;
  return rep;
}

// --- Phase 4: bit identity -------------------------------------------------

/// Every served handle must reproduce bit-identically under a direct
/// `acs::multiply` with the reported effective Config. Results are grouped
/// by (operand structure, overlay) — the direct product is computed once
/// per group.
bool verify_bit_identity(std::vector<ServeHandle<double>>& served,
                         const std::vector<const Csr<double>*>& operands) {
  struct Group {
    const Csr<double>* a = nullptr;
    acs::TunedParams tuned;
    Csr<double> expect;
  };
  std::vector<Group> groups;
  for (auto& h : served) {
    auto& r = h.result();
    const Csr<double>* a = nullptr;
    for (const auto* m : operands)
      if (m->rows == r.job.c.rows) a = m;
    if (a == nullptr) return false;
    Group* g = nullptr;
    for (auto& cand : groups)
      if (cand.a == a && cand.tuned == r.tuned_applied) g = &cand;
    if (g == nullptr) {
      Config eff;
      r.tuned_applied.apply(eff);
      groups.push_back(Group{a, r.tuned_applied, acs::multiply(*a, *a, eff)});
      g = &groups.back();
    }
    if (!r.job.c.equals_exact(g->expect)) return false;
  }
  return true;
}

/// The explicit degraded -> tuned -> rejected -> resubmitted storyline.
bool run_identity_storyline(const Csr<double>& a, double c, unsigned workers) {
  ServerConfig scfg;
  scfg.engine.workers = workers;
  scfg.tuning = true;
  scfg.tune_latency_s = 2.0 * c;
  scfg.admission.executors = 1;
  acs::serve::Server<double> server(scfg);

  auto cold = server.submit(a, a, SubmitInfo{"alpha", 0, 0.0, kInf});
  auto doomed = server.submit(a, a, SubmitInfo{"alpha", 0, 0.0, 0.5 * c});
  auto warm = server.submit(a, a, SubmitInfo{"alpha", 0, 3.0 * c, kInf});
  // The rejected client resubmits with a workable deadline.
  auto retry = server.submit(a, a, SubmitInfo{"alpha", 0, 4.0 * c, 10.0 * c});
  server.drain();

  if (!cold.result().degraded || !cold.result().served()) return false;
  if (doomed.result().status != ServeStatus::kRejected) return false;
  if (warm.result().degraded || !warm.result().served()) return false;
  if (!retry.result().served()) return false;

  const auto plain = acs::multiply(a, a);
  if (!cold.result().job.c.equals_exact(plain)) return false;
  Config eff;
  warm.result().tuned_applied.apply(eff);
  const auto tuned = acs::multiply(a, a, eff);
  if (!warm.result().job.c.equals_exact(tuned)) return false;
  Config eff2;
  retry.result().tuned_applied.apply(eff2);
  return retry.result().job.c.equals_exact(acs::multiply(a, a, eff2));
}

// --- Report ----------------------------------------------------------------

void emit_json(std::ostream& os, std::size_t jobs, unsigned workers,
               bool smoke, const FairnessReport& fair,
               const DeadlineReport& dl, const CeilingReport& ceil,
               bool bit_ok) {
  os << "{\n  \"bench\": \"service\", \"jobs_per_tenant\": " << jobs
     << ", \"engine_workers\": " << workers
     << ", \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"fair_overload\": {\"jain_fairness\": " << fair.jain
     << ", \"queue_depth_peak\": " << fair.queue_depth_peak
     << ", \"window_cost_s\": [";
  for (std::size_t i = 0; i < fair.window_cost_s.size(); ++i)
    os << (i ? ", " : "") << fair.window_cost_s[i];
  os << "]},\n";
  os << "  \"low_load\": {\"admitted\": " << dl.admitted
     << ", \"deadline_misses\": " << dl.misses
     << ", \"degraded\": " << dl.degraded
     << ", \"deadline_slack_s\": " << dl.deadline_slack_s
     << ", \"p99_s\": " << dl.p99_s << ", \"tenants\": {";
  bool first = true;
  for (const auto& [name, t] : dl.tenants) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"served\": "
       << t.latency_s.size()
       << ", \"p50_s\": " << percentile(t.latency_s, 50.0)
       << ", \"p99_s\": " << percentile(t.latency_s, 99.0)
       << ", \"deadline_misses\": " << t.misses << "}";
    first = false;
  }
  os << "}},\n";
  os << "  \"ceiling\": {\"unconstrained_wall_s\": "
     << ceil.unconstrained_wall_s
     << ", \"constrained_wall_s\": " << ceil.constrained_wall_s
     << ", \"wall_ratio\": " << ceil.wall_ratio
     << ", \"wall_ratio_slices\": [";
  for (std::size_t i = 0; i < ceil.wall_ratio_slices.size(); ++i)
    os << (i ? ", " : "") << ceil.wall_ratio_slices[i];
  os << "]"
     << ", \"unconstrained_jobs_per_s\": " << ceil.unconstrained_jobs_per_s
     << ", \"constrained_jobs_per_s\": " << ceil.constrained_jobs_per_s
     << ", \"admitted\": " << ceil.admitted
     << ", \"completed\": " << ceil.completed << ", \"shed\": " << ceil.shed
     << "},\n";
  os << "  \"bit_identical\": " << (bit_ok ? "true" : "false") << ",\n";
  os << "  \"gates\": {\"fairness_ok\": " << (fair.ok ? "true" : "false")
     << ", \"deadline_ok\": " << (dl.ok ? "true" : "false")
     << ", \"shed_not_stall_ok\": " << (ceil.ok ? "true" : "false")
     << ", \"bit_identity_ok\": " << (bit_ok ? "true" : "false") << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      positional.push_back(argv[i]);
  }
  const std::size_t jobs =
      positional.size() > 0
          ? static_cast<std::size_t>(std::atoll(positional[0]))
          : (smoke ? 10 : 24);
  const unsigned workers =
      positional.size() > 1
          ? static_cast<unsigned>(std::atoi(positional[1]))
          : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  const auto a = acs::gen_uniform_random<double>(220, 220, 6.0, 1.5, 401);
  const auto b = acs::gen_powerlaw<double>(200, 200, 5.0, 1.6, 100, 402);
  const double c = probe_cost(a);
  if (!(c > 0.0)) {
    std::cerr << "predictor returned non-positive cost; aborting\n";
    return 1;
  }

  std::vector<ServeHandle<double>> served;
  const FairnessReport fair = run_fair_overload(a, c, jobs, workers, served);
  DeadlineReport dl;
  {
    std::vector<ServeHandle<double>> degraded;
    dl = run_low_load(a, b, c, jobs, workers, smoke, served, degraded);
  }
  const CeilingReport ceil = run_ceiling(a, c, 2 * jobs, workers, served);
  const bool bit_ok = verify_bit_identity(served, {&a, &b}) &&
                      run_identity_storyline(b, probe_cost(b), workers);

  std::ostringstream json;
  emit_json(json, jobs, workers, smoke, fair, dl, ceil, bit_ok);
  std::cout << json.str();
  std::ofstream(acs::bench_out_path("bench_service.json")) << json.str();

  const bool ok = fair.ok && dl.ok && ceil.ok && bit_ok;
  std::cerr << "jain=" << fair.jain << " p99=" << dl.p99_s
            << " misses=" << dl.misses << "/" << dl.admitted
            << " shed=" << ceil.shed << " wall_ratio=" << ceil.wall_ratio
            << " bit_identical=" << (bit_ok ? "yes" : "no")
            << (ok ? "  [ok]" : "  [BELOW TARGET]") << "\n";
  return ok ? 0 : 1;
}
