#pragma once
/// \file common.hpp
/// Shared pieces of the benchmark binary: options, the metric report that
/// becomes the final JSON line, clocks and order statistics, the span
/// self-time reduction for traced passes, and the lean Gustavson floor.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "matrix/csr.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "bench_out";
  std::string commit = "unknown";
};

/// Named metrics of one run plus its correctness tally. `failed` counts
/// jobs that threw, failed or whose output did not verify.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Record one failed job; the first few reasons go to stderr.
  void fail(const std::string& why);
  /// Record a detail line for the per-run artifact (not a metric).
  void note(const std::string& key, const std::string& json_value) {
    notes_[key] = json_value;
  }

  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}
  /// restricted to `names` (every name must have been set).
  [[nodiscard]] std::string result_line(
      const std::vector<std::string>& names) const;
  /// Every metric and note, with the run header, for bench_out/.
  [[nodiscard]] std::string artifact(const Options& opt,
                                     const std::string& header) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Linear-interpolated percentile (p in [0, 100]) of a copy of `v`.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
[[nodiscard]] double geomean(const std::vector<double>& v);
/// Peak resident set of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Self time per canonical pipeline stage (trace::kStageNames order): each
/// stage span's duration minus the part covered by its child spans.
[[nodiscard]] std::array<double, acs::trace::kNumStages> stage_self_times(
    const std::vector<acs::trace::SpanRecord>& spans);

/// Seeds derived from the workload seed, one stream per input.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The wall-clock floor: sequential row-wise Gustavson with a dense
/// accumulator and no counters. A symbolic pass sizes C exactly, the numeric
/// pass accumulates each row and sorts its columns, so the result is a valid
/// CSR comparable with `acs::verify_product`.
template <class T>
acs::Csr<T> floor_multiply(const acs::Csr<T>& a, const acs::Csr<T>& b) {
  using acs::index_t;
  const auto at = [](index_t i) { return static_cast<std::size_t>(i); };
  acs::Csr<T> c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.assign(at(a.rows) + 1, 0);
  std::vector<index_t> mark(at(b.cols), -1);
  std::size_t total = 0;
  for (index_t r = 0; r < a.rows; ++r) {
    for (index_t ka = a.row_ptr[at(r)]; ka < a.row_ptr[at(r) + 1]; ++ka) {
      const std::size_t k = at(a.col_idx[at(ka)]);
      for (index_t kb = b.row_ptr[k]; kb < b.row_ptr[k + 1]; ++kb) {
        const std::size_t j = at(b.col_idx[at(kb)]);
        if (mark[j] != r) {
          mark[j] = r;
          ++total;
        }
      }
    }
    c.row_ptr[at(r) + 1] = static_cast<index_t>(total);
  }
  c.col_idx.resize(total);
  c.values.resize(total);
  std::vector<T> acc(at(b.cols), T{});
  std::fill(mark.begin(), mark.end(), -1);
  for (index_t r = 0; r < a.rows; ++r) {
    index_t* cols = c.col_idx.data() + c.row_ptr[at(r)];
    std::size_t n = 0;
    for (index_t ka = a.row_ptr[at(r)]; ka < a.row_ptr[at(r) + 1]; ++ka) {
      const std::size_t k = at(a.col_idx[at(ka)]);
      const T av = a.values[at(ka)];
      for (index_t kb = b.row_ptr[k]; kb < b.row_ptr[k + 1]; ++kb) {
        const std::size_t j = at(b.col_idx[at(kb)]);
        const T p = av * b.values[at(kb)];
        if (mark[j] != r) {
          mark[j] = r;
          acc[j] = p;
          cols[n++] = static_cast<index_t>(j);
        } else {
          acc[j] += p;
        }
      }
    }
    std::sort(cols, cols + n);
    T* vals = c.values.data() + c.row_ptr[at(r)];
    for (std::size_t i = 0; i < n; ++i) vals[i] = acc[at(cols[i])];
  }
  return c;
}

// Workload entry points. Each fills `rep` with its metrics; the traced
// variants also record per-layer metrics.
void run_large_native(const Options& opt, Report& rep);
void run_mixed_native(const Options& opt, Report& rep);
void run_serve_sim(const Options& opt, Report& rep);
void trace_large_native(const Options& opt, Report& rep);
void trace_mixed_native(const Options& opt, Report& rep);
void trace_serve_sim(const Options& opt, Report& rep);

}  // namespace perfbench
