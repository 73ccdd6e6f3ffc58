#include "trace/exporters.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace acs::trace {
namespace {

/// Shortest round-trippable-enough representation, deterministic across
/// runs for identical doubles.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Microsecond timestamp with fixed sub-microsecond precision.
std::string fmt_us(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

/// Per-span aggregate keyed by name, in order of first appearance.
struct NameAgg {
  std::size_t count = 0;
  double wall_s = 0.0;
  double sim_s = 0.0;
};

std::vector<std::pair<std::string, NameAgg>> aggregate_by_name(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::pair<std::string, NameAgg>> out;
  std::map<std::string, std::size_t> index;
  for (const SpanRecord& s : spans) {
    auto [it, inserted] = index.try_emplace(s.name, out.size());
    if (inserted) out.emplace_back(s.name, NameAgg{});
    NameAgg& agg = out[it->second].second;
    ++agg.count;
    agg.wall_s += s.end_s - s.start_s;
    agg.sim_s += s.sim_time_s;
  }
  return out;
}

/// Simulated duration of each span including its descendants, and the
/// depth-first layout of start timestamps on the simulated timeline.
struct SimLayout {
  std::vector<double> total_s;  ///< own + descendants
  std::vector<double> start_s;  ///< assigned depth-first
};

SimLayout layout_sim_timeline(const std::vector<SpanRecord>& spans) {
  const std::size_t n = spans.size();
  SimLayout l;
  l.total_s.assign(n, 0.0);
  l.start_s.assign(n, 0.0);

  std::vector<std::vector<SpanId>> children(n);
  std::vector<SpanId> roots;
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent == kNoSpan)
      roots.push_back(static_cast<SpanId>(i));
    else if (spans[i].parent < n)
      children[spans[i].parent].push_back(static_cast<SpanId>(i));
  }

  // Post-order totals (ids are creation-ordered, children have larger ids,
  // so a reverse sweep sees every child before its parent).
  for (std::size_t i = n; i-- > 0;) {
    l.total_s[i] = spans[i].sim_time_s;
    for (SpanId c : children[i]) l.total_s[i] += l.total_s[c];
  }

  // Depth-first timestamp assignment: children first, the span's own
  // simulated time trails at the end of its interval.
  std::vector<std::pair<SpanId, double>> stack;  // (span, start)
  double cursor = 0.0;
  for (SpanId r : roots) {
    stack.emplace_back(r, cursor);
    while (!stack.empty()) {
      const auto [id, start] = stack.back();
      stack.pop_back();
      l.start_s[id] = start;
      double child_start = start;
      // Push in reverse so children lay out in creation order.
      std::vector<std::pair<SpanId, double>> batch;
      for (SpanId c : children[id]) {
        batch.emplace_back(c, child_start);
        child_start += l.total_s[c];
      }
      for (std::size_t i = batch.size(); i-- > 0;) stack.push_back(batch[i]);
    }
    cursor += l.total_s[r];
  }
  return l;
}

}  // namespace

std::array<double, kNumStages> sim_stage_totals(
    const std::vector<SpanRecord>& spans, SpanId root) {
  std::array<double, kNumStages> totals{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int stage = stage_index(spans[i].name);
    if (stage < 0) continue;
    if (root != kNoSpan) {
      SpanId a = static_cast<SpanId>(i);
      while (a != kNoSpan && a != root) a = spans[a].parent;
      if (a != root) continue;
    }
    totals[static_cast<std::size_t>(stage)] += spans[i].sim_time_s;
  }
  return totals;
}

std::string to_chrome_json(const TraceSession& session,
                           const ExportOptions& opts) {
  const std::vector<SpanRecord> spans = session.spans();
  const SimLayout layout = layout_sim_timeline(spans);

  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "  {\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"acspgemm sim timeline\"}}";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << ",\n  {\"name\": \"" << escape(s.name) << "\", \"ph\": \"X\""
       << ", \"pid\": 0, \"tid\": " << s.thread
       << ", \"ts\": " << fmt_us(layout.start_s[i])
       << ", \"dur\": " << fmt_us(layout.total_s[i])
       << ", \"args\": {\"sim_s\": " << fmt(s.sim_time_s);
    if (opts.include_wall)
      os << ", \"wall_s\": " << fmt(s.end_s - s.start_s);
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string to_table(const TraceSession& session) {
  const std::vector<SpanRecord> spans = session.spans();
  const auto by_name = aggregate_by_name(spans);
  double total_sim = 0.0;
  std::size_t name_width = 4;
  for (const auto& [name, agg] : by_name) {
    total_sim += agg.sim_s;
    name_width = std::max(name_width, name.size());
  }

  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-*s %7s %12s %12s %7s\n",
                static_cast<int>(name_width), "span", "count", "wall ms",
                "sim us", "sim %");
  os << line;
  for (const auto& [name, agg] : by_name) {
    std::snprintf(line, sizeof(line), "%-*s %7zu %12.3f %12.3f %7.1f\n",
                  static_cast<int>(name_width), name.c_str(), agg.count,
                  agg.wall_s * 1e3, agg.sim_s * 1e6,
                  total_sim > 0.0 ? 100.0 * agg.sim_s / total_sim : 0.0);
    os << line;
  }

  const CountersSnapshot c = session.counters_snapshot();
  os << "\ncounters: restarts=" << c.restarts
     << " esc_blocks=" << c.esc_blocks << " esc_iterations=" << c.esc_iterations
     << " chunks=" << c.chunks_written << " long_row_chunks=" << c.long_row_chunks
     << "\n          merge_rows multi/path/search=" << c.merge_case_rows[0]
     << "/" << c.merge_case_rows[1] << "/" << c.merge_case_rows[2]
     << " merge_windows=" << c.merge_windows
     << "\n          pool alloc/used/capacity=" << c.pool_alloc_bytes << "/"
     << c.pool_used_bytes << "/" << c.pool_capacity_bytes
     << " estimate=" << c.pool_estimate_bytes
     << " denials=" << c.pool_denials
     << "\n          blocks_executed=" << c.blocks_executed;
  if (c.blocks_executed > 0) {
    os << " avg_block_us="
       << fmt(static_cast<double>(c.block_time_ns_sum) /
              static_cast<double>(c.blocks_executed) / 1e3)
       << " max_block_us="
       << fmt(static_cast<double>(c.block_time_ns_max) / 1e3);
  }
  os << "\n";
  return os.str();
}

}  // namespace acs::trace
