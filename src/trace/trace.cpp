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
  // mo: CAS seed; a stale read just costs one extra loop round.
  std::uint64_t cur = sink_->ns_max.load(std::memory_order_relaxed);
  while (cur < ns) {
    // mo: max-gauge CAS — its atomicity alone keeps the gauge monotone;
    // mo: no other data is published through it.
    if (sink_->ns_max.compare_exchange_weak(cur, ns,
                                            std::memory_order_relaxed))
      break;
  }
}

void TraceSession::add_counters(const CountersSnapshot& run) {
  acs::MutexLock lock(m_);
  counters_ += run;
}

CountersSnapshot TraceSession::counters_snapshot() const {
  acs::MutexLock lock(m_);
  return counters_;
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

}  // namespace acs::trace
