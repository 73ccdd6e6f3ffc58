/// \file main.cpp
/// The benchmark binary. Usage:
///   acs_perfbench --workload <large_native|mixed_native|serve_sim>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 [--out <dir>] [--commit <sha>]
/// With --trace 0 it runs the named workload untraced and prints the
/// end-to-end metrics; with --trace 1 it runs the traced pass of every
/// workload plus the per-regime probes and prints the per-layer metrics.
/// The last stdout line is the result JSON; a full artifact with the run
/// header goes to <out>/. Exit code 0 only when every output verified.

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"

#ifndef ACS_BENCH_BUILD_TYPE
#define ACS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ACS_BENCH_COMPILER
#define ACS_BENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Report;

/// Seed kept out of all tuning of this benchmark, for confirming claims.
constexpr std::uint64_t kHeldOutSeed = 7177;

const std::vector<std::string> kEndToEnd = {
    "wall_gflops",    "jobs_per_s",   "latency_p50_ms", "latency_p99_ms",
    "model_gflops",   "goodput_frac", "setup_s",        "peak_rss_mb"};

const std::vector<std::string> kRegimes = {"uniform", "powerlaw", "stencil3d",
                                           "blockdense"};
const std::vector<std::string> kStages = {"GLB", "ESC", "MCC", "MM",
                                          "PM",  "SM",  "CC"};
const std::vector<std::string> kCounts = {
    "esc_iterations",     "chunks_written",    "merge_rows.multi",
    "merge_rows.path",    "merge_rows.search", "long_row_chunks",
    "restarts",           "pool_denials"};

std::vector<std::string> per_layer_names() {
  std::vector<std::string> n = {
      "runtime.submit_us_p50", "runtime.fingerprint_us", "runtime.exec_ms_p50",
      "runtime.wait_ms_p50",   "runtime.wait_ms_p99",    "runtime.plan_hit_rate",
      "runtime.pool_reuse_frac"};
  for (const char* wl : {"large_native", "mixed_native", "serve_sim"})
    for (const auto& st : kStages)
      n.push_back(std::string("core.") + wl + "." + st + ".wall_s");
  for (const auto& st : kStages) n.push_back("core.serve_sim." + st + ".model_s");
  for (const char* wl : {"large_native", "serve_sim"})
    for (const auto& c : kCounts) n.push_back(std::string("core.") + wl + "." + c);
  for (const char* m : {"native_1t_s", "native_4t_s", "scaling", "floor_ratio"})
    for (const auto& r : kRegimes) n.push_back(std::string("arch.") + m + "." + r);
  for (const char* m : {"sim.host_per_model", "sim.mp_load", "estimate.plan_us",
                        "estimate.pool_ratio_p50", "estimate.pool_ratio_max",
                        "tune.features_us", "tune.choose_cold_us",
                        "tune.choose_full_us", "tune.model_regret_geomean",
                        "tune.model_regret_max", "serve.submit_us_p50",
                        "serve.submit_us_p99", "serve.admitted_frac",
                        "serve.shed_frac", "serve.deadline_miss_frac",
                        "serve.degraded_frac", "serve.jain",
                        "serve.gen_lag_ms_p99", "trace.overhead_frac",
                        "trace.detail_overhead_frac"})
    n.emplace_back(m);
  for (const char* m : {"floor_s", "spa_s"})
    for (const auto& r : kRegimes) n.push_back(std::string("ref.") + m + "." + r);
  return n;
}

int usage(const char* why) {
  std::cerr << "acs_perfbench: " << why
            << "\nusage: acs_perfbench --workload <large_native|mixed_native|"
               "serve_sim> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--commit <sha>]\n";
  return 2;
}

std::string header_json(const Options& opt) {
  std::ostringstream os;
  os << "{\"build_type\": \"" << ACS_BENCH_BUILD_TYPE << "\", \"compiler\": \""
     << ACS_BENCH_COMPILER << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"commit\": \"" << opt.commit
     << "\", \"held_out_seed\": " << kHeldOutSeed << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed blocks up to 32 MiB in the heap instead of returning them to
  // the kernel, so per-job buffers are reused rather than page-faulted in
  // afresh on every job; the fault cost varies widely between hosts.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--out") opt.out_dir = value;
    else if (flag == "--commit") opt.commit = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (opt.workload != "large_native" && opt.workload != "mixed_native" &&
      opt.workload != "serve_sim")
    return usage("unknown workload");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  const std::string header = header_json(opt);
  std::cerr << "acs_perfbench " << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << " "
            << header << "\n";

  Report rep;
  try {
    if (!opt.trace) {
      if (opt.workload == "large_native") perfbench::run_large_native(opt, rep);
      else if (opt.workload == "mixed_native") perfbench::run_mixed_native(opt, rep);
      else perfbench::run_serve_sim(opt, rep);
      rep.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    } else {
      perfbench::trace_large_native(opt, rep);
      perfbench::trace_mixed_native(opt, rep);
      perfbench::trace_serve_sim(opt, rep);
    }
  } catch (const std::exception& e) {
    std::cerr << "acs_perfbench: " << e.what() << "\n";
    return 1;
  }

  const std::vector<std::string> names = opt.trace ? per_layer_names() : kEndToEnd;
  for (const auto& n : names) {
    if (!rep.has(n)) {
      std::cerr << "acs_perfbench: metric " << n << " was not produced\n";
      return 3;
    }
  }

  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  std::ofstream(path) << rep.artifact(opt, header);

  std::cout << rep.result_line(names) << std::endl;
  return rep.failed() == 0 ? 0 : 1;
}
