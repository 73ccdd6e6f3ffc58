#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::fail(const std::string& why) {
  if (failed_ < 8) std::cerr << "verification failure: " << why << "\n";
  ++failed_;
}

std::string Report::result_line(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = metrics_.find(names[i]);
    const Metric m = it == metrics_.end() ? Metric{NAN, "missing"} : it->second;
    os << (i ? ", " : "") << "\"" << names[i]
       << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string Report::artifact(const Options& opt,
                             const std::string& header) const {
  std::ostringstream os;
  os << "{\n  \"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
     << ", \"seconds\": " << opt.seconds
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ",\n  \"header\": " << header
     << ",\n  \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ",\n  \"metrics\": {\n";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ",\n") << "    \"" << name
       << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
       << m.unit << "\"}";
    first = false;
  }
  os << "\n  },\n  \"details\": {\n";
  first = true;
  for (const auto& [key, value] : notes_) {
    os << (first ? "" : ",\n") << "    \"" << key << "\": " << value;
    first = false;
  }
  os << "\n  }\n}\n";
  return os.str();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::array<double, acs::trace::kNumStages> stage_self_times(
    const std::vector<acs::trace::SpanRecord>& spans) {
  std::vector<double> child_time(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent != acs::trace::kNoSpan && s.parent < spans.size())
      child_time[s.parent] += s.end_s - s.start_s;
  std::array<double, acs::trace::kNumStages> self{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int stage = acs::trace::stage_index(spans[i].name);
    if (stage < 0) continue;
    self[static_cast<std::size_t>(stage)] +=
        std::max(0.0, spans[i].end_s - spans[i].start_s - child_time[i]);
  }
  return self;
}

}  // namespace perfbench
