#include "trace/trace.hpp"

#include <algorithm>

namespace acs::trace {

CountersSnapshot& CountersSnapshot::operator+=(const CountersSnapshot& o) {
  pool_alloc_bytes += o.pool_alloc_bytes;
  pool_denials += o.pool_denials;
  pool_capacity_bytes = std::max(pool_capacity_bytes, o.pool_capacity_bytes);
  pool_used_bytes = std::max(pool_used_bytes, o.pool_used_bytes);
  pool_estimate_bytes = std::max(pool_estimate_bytes, o.pool_estimate_bytes);
  restarts += o.restarts;
  esc_blocks += o.esc_blocks;
  esc_iterations += o.esc_iterations;
  for (std::size_t i = 0; i < kEscHistBuckets; ++i)
    esc_iteration_hist[i] += o.esc_iteration_hist[i];
  chunks_written += o.chunks_written;
  long_row_chunks += o.long_row_chunks;
  for (std::size_t i = 0; i < merge_case_rows.size(); ++i)
    merge_case_rows[i] += o.merge_case_rows[i];
  merge_windows += o.merge_windows;
  blocks_executed += o.blocks_executed;
  block_time_ns_sum += o.block_time_ns_sum;
  block_time_ns_max = std::max(block_time_ns_max, o.block_time_ns_max);
  return *this;
}

void Counters::add(const CountersSnapshot& run) {
  const auto sum = [](std::atomic<std::uint64_t>& a, std::uint64_t v) {
    // mo: trace counters; readers snapshot them after the runs join.
    a.fetch_add(v, std::memory_order_relaxed);
  };
  sum(pool_alloc_bytes, run.pool_alloc_bytes);
  sum(pool_denials, run.pool_denials);
  raise(pool_capacity_bytes, run.pool_capacity_bytes);
  raise(pool_used_bytes, run.pool_used_bytes);
  raise(pool_estimate_bytes, run.pool_estimate_bytes);
  sum(restarts, run.restarts);
  sum(esc_blocks, run.esc_blocks);
  sum(esc_iterations, run.esc_iterations);
  for (std::size_t i = 0; i < kEscHistBuckets; ++i)
    sum(esc_iteration_hist[i], run.esc_iteration_hist[i]);
  sum(chunks_written, run.chunks_written);
  sum(long_row_chunks, run.long_row_chunks);
  for (std::size_t i = 0; i < merge_case_rows.size(); ++i)
    sum(merge_case_rows[i], run.merge_case_rows[i]);
  sum(merge_windows, run.merge_windows);
  sum(blocks_executed, run.blocks_executed);
  sum(block_time_ns_sum, run.block_time_ns_sum);
  raise(block_time_ns_max, run.block_time_ns_max);
}

CountersSnapshot Counters::snapshot() const {
  CountersSnapshot s;
  const auto get = [](const std::atomic<std::uint64_t>& a) {
    // mo: snapshot of monotonic counters; exact totals only after joins.
    return a.load(std::memory_order_relaxed);
  };
  s.pool_alloc_bytes = get(pool_alloc_bytes);
  s.pool_denials = get(pool_denials);
  s.pool_capacity_bytes = get(pool_capacity_bytes);
  s.pool_used_bytes = get(pool_used_bytes);
  s.pool_estimate_bytes = get(pool_estimate_bytes);
  s.restarts = get(restarts);
  s.esc_blocks = get(esc_blocks);
  s.esc_iterations = get(esc_iterations);
  for (std::size_t i = 0; i < kEscHistBuckets; ++i)
    s.esc_iteration_hist[i] = get(esc_iteration_hist[i]);
  s.chunks_written = get(chunks_written);
  s.long_row_chunks = get(long_row_chunks);
  for (std::size_t i = 0; i < s.merge_case_rows.size(); ++i)
    s.merge_case_rows[i] = get(merge_case_rows[i]);
  s.merge_windows = get(merge_windows);
  s.blocks_executed = get(blocks_executed);
  s.block_time_ns_sum = get(block_time_ns_sum);
  s.block_time_ns_max = get(block_time_ns_max);
  return s;
}

void BlockTimes::fold_into(CountersSnapshot& record) const {
  // mo: read after the run's dispatches joined, which publish the adds.
  record.blocks_executed = blocks.load(std::memory_order_relaxed);
  // mo: same as above.
  record.block_time_ns_sum = ns_sum.load(std::memory_order_relaxed);
  // mo: same as above.
  record.block_time_ns_max = ns_max.load(std::memory_order_relaxed);
}

BlockTimer::~BlockTimer() {
  if (!sink_) return;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  // mo: per-run totals, read once the dispatch joins.
  sink_->blocks.fetch_add(1, std::memory_order_relaxed);
  // mo: same as above.
  sink_->ns_sum.fetch_add(ns, std::memory_order_relaxed);
  Counters::raise(sink_->ns_max, ns);
}

SpanId TraceSession::begin_span(std::string_view name) {
  const double t = now_s();
  acs::MutexLock lock(m_);
  auto [it, inserted] = threads_.try_emplace(std::this_thread::get_id());
  if (inserted) it->second.slot = static_cast<std::uint32_t>(threads_.size() - 1);
  ThreadState& ts = it->second;

  SpanRecord rec;
  rec.name.assign(name);
  rec.parent = ts.stack.empty() ? kNoSpan : ts.stack.back();
  rec.thread = ts.slot;
  rec.start_s = t;
  rec.end_s = t;  // open span: end tracks start until closed
  const auto id = static_cast<SpanId>(spans_.size());
  spans_.push_back(std::move(rec));
  ts.stack.push_back(id);
  return id;
}

void TraceSession::end_span(SpanId id, double sim_time_s) {
  const double t = now_s();
  acs::MutexLock lock(m_);
  if (id >= spans_.size()) return;
  SpanRecord& rec = spans_[id];
  rec.end_s = t;
  rec.sim_time_s += sim_time_s;
  // Pop from the owning thread's stack. Spans close in LIFO order per
  // thread (ScopedSpan enforces it); tolerate out-of-order closes from
  // hand-rolled begin/end pairs by erasing wherever the id sits.
  const auto it = threads_.find(std::this_thread::get_id());
  if (it != threads_.end()) {
    auto& stack = it->second.stack;
    if (!stack.empty() && stack.back() == id) {
      stack.pop_back();
    } else {
      const auto pos = std::find(stack.begin(), stack.end(), id);
      if (pos != stack.end()) stack.erase(pos);
    }
  }
}

void TraceSession::add_sim_time(SpanId id, double sim_time_s) {
  acs::MutexLock lock(m_);
  if (id < spans_.size()) spans_[id].sim_time_s += sim_time_s;
}

std::vector<SpanRecord> TraceSession::spans() const {
  acs::MutexLock lock(m_);
  return spans_;
}

std::size_t TraceSession::span_count() const {
  acs::MutexLock lock(m_);
  return spans_.size();
}

double TraceSession::elapsed_s() const { return now_s(); }

}  // namespace acs::trace
