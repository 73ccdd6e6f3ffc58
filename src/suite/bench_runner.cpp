#include "suite/bench_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>

#include "core/acspgemm.hpp"
#include "core/chunk.hpp"
#include "matrix/stats.hpp"
#include "matrix/transpose.hpp"

namespace acs {
namespace {

/// Allocates and frees every region itself, as a call without a
/// RegionSource does, and counts the bytes it allocated.
class CountingRegions final : public RegionSource {
 public:
  std::byte* take_region() override {
    std::byte* region = allocate_region();
    // mo: a tally read after the multiply's blocks joined.
    bytes_.fetch_add(kPoolRegionBytes, std::memory_order_relaxed);
    return region;
  }
  void give_back(std::byte* region) noexcept override { free_region(region); }

  [[nodiscard]] std::size_t bytes() const {
    // mo: read after the multiply returned.
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace

template <class T>
BenchMeasurement run_benchmark(const SuiteEntry& entry,
                               const SpgemmAlgorithm<T>& algo) {
  const Csr<T> a = build_matrix<T>(entry);
  const Csr<T> b = entry.square ? a : transpose(a);

  BenchMeasurement m;
  m.matrix = entry.name;
  m.algorithm = algo.name();
  m.precision = sizeof(T) == 4 ? "float" : "double";
  m.nnz_a = a.nnz();
  m.avg_row_len_a = row_stats(a).avg_len;
  m.temp_products = intermediate_products(a, b);

  const Csr<T> c = algo.multiply(a, b, &m.stats);
  m.nnz_c = c.nnz();
  m.gflops = m.stats.gflops();
  m.sim_time_s = m.stats.sim_time_s;
  return m;
}

template <class T>
std::vector<BenchMeasurement> run_benchmarks(
    const SuiteEntry& entry,
    const std::vector<std::unique_ptr<SpgemmAlgorithm<T>>>& algos) {
  std::vector<BenchMeasurement> out;
  out.reserve(algos.size());
  for (const auto& algo : algos) out.push_back(run_benchmark(entry, *algo));
  return out;
}

template <class T>
BatchBenchResult run_engine_batch(
    runtime::Engine<T>& engine,
    const std::vector<std::pair<Csr<T>, Csr<T>>>& pairs, const Config& cfg,
    const std::string& label) {
  const auto arena_before = engine.arena_counters();

  BatchBenchResult r;
  r.label = label;
  r.jobs = pairs.size();
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = engine.multiply_batch(pairs, cfg);
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.jobs_per_s = r.wall_s > 0.0 ? static_cast<double>(r.jobs) / r.wall_s : 0.0;

  std::size_t hits = 0;
  for (const auto& jr : results) {
    if (jr.failed()) continue;
    r.sim_time_s += jr.stats.sim_time_s;
    r.restarts += static_cast<std::size_t>(std::max(0, jr.stats.restarts));
    r.pool_reused_bytes += jr.pool_reused_bytes;
    trace::MetricsSnapshot m = to_metrics_snapshot(jr.stats);
    if (jr.trace) m.counters = jr.trace->counters_snapshot();
    r.metrics += m;
    if (jr.plan_hit) ++hits;
  }
  r.plan_hit_rate =
      r.jobs == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(r.jobs);
  r.pool_fresh_bytes =
      engine.arena_counters().fresh_bytes - arena_before.fresh_bytes;
  return r;
}

template <class T>
BatchBenchResult run_naive_batch(
    const std::vector<std::pair<Csr<T>, Csr<T>>>& pairs, const Config& cfg,
    const std::string& label) {
  BatchBenchResult r;
  r.label = label;
  r.jobs = pairs.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [a, b] : pairs) {
    SpgemmStats stats;
    SpgemmPlan plan;  // fresh, as `multiply` runs
    CountingRegions regions;
    const Csr<T> c =
        multiply_planned(a, b, cfg, plan, &stats, nullptr, &regions);
    r.sim_time_s += stats.sim_time_s;
    r.restarts += static_cast<std::size_t>(std::max(0, stats.restarts));
    r.pool_fresh_bytes += regions.bytes();
    r.metrics += to_metrics_snapshot(stats);
  }
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.jobs_per_s = r.wall_s > 0.0 ? static_cast<double>(r.jobs) / r.wall_s : 0.0;
  return r;
}

double harmonic_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double denom = 0.0;
  for (double x : v) denom += 1.0 / x;
  return static_cast<double>(v.size()) / denom;
}

std::string bench_out_path(const std::string& name) {
  std::error_code ec;  // best-effort: an unwritable cwd surfaces at open()
  std::filesystem::create_directories("bench_out", ec);
  return (std::filesystem::path("bench_out") / name).string();
}

template BatchBenchResult run_engine_batch(
    runtime::Engine<float>&,
    const std::vector<std::pair<Csr<float>, Csr<float>>>&, const Config&,
    const std::string&);
template BatchBenchResult run_engine_batch(
    runtime::Engine<double>&,
    const std::vector<std::pair<Csr<double>, Csr<double>>>&, const Config&,
    const std::string&);
template BatchBenchResult run_naive_batch(
    const std::vector<std::pair<Csr<float>, Csr<float>>>&, const Config&,
    const std::string&);
template BatchBenchResult run_naive_batch(
    const std::vector<std::pair<Csr<double>, Csr<double>>>&, const Config&,
    const std::string&);
template BenchMeasurement run_benchmark(const SuiteEntry&,
                                        const SpgemmAlgorithm<float>&);
template BenchMeasurement run_benchmark(const SuiteEntry&,
                                        const SpgemmAlgorithm<double>&);
template std::vector<BenchMeasurement> run_benchmarks(
    const SuiteEntry&,
    const std::vector<std::unique_ptr<SpgemmAlgorithm<float>>>&);
template std::vector<BenchMeasurement> run_benchmarks(
    const SuiteEntry&,
    const std::vector<std::unique_ptr<SpgemmAlgorithm<double>>>&);

}  // namespace acs
