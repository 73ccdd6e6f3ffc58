#pragma once
/// \file trace.hpp
/// Stage-level observability for the SpGEMM pipeline: a low-overhead,
/// thread-safe tracing and metrics layer. A `TraceSession` records a span
/// tree (one span per pipeline stage / kernel launch, wall-clock start/end
/// plus attributed simulated time) and one `CountersSnapshot` (chunk pool
/// traffic, restarts, ESC iteration histogram, rows per merge case, block
/// host-time attribution). Spans open through the `ACS_TRACE_*` macros,
/// which cost a single null-pointer check when tracing is disabled — the
/// overhead policy DESIGN.md §7 commits to. The counter record has one
/// writer: the pipeline adds one `CountersSnapshot` per finished run
/// (`TraceSession::add_counters`).
///
/// Sessions are safe to share between threads: spans keep per-thread parent
/// stacks (a worker's spans nest under that worker's open spans, never under
/// another thread's), and the spans, the counter record and every accessor
/// that copies them sit under the session mutex.
///
/// Example:
/// \code
///   acs::trace::TraceSession session;
///   cfg.trace = &session;
///   acs::multiply(a, b, cfg, &stats);
///   std::cout << acs::trace::to_table(session);
/// \endcode

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.hpp"

namespace acs::trace {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0xffffffffu;

/// ESC iteration histogram buckets: 1, 2, ..., kEscHistBuckets-1, and a
/// final bucket for everything beyond.
inline constexpr std::size_t kEscHistBuckets = 8;

/// Merge-case indices for `CountersSnapshot::merge_case_rows`.
enum MergeCase : std::size_t { kMultiMerge = 0, kPathMerge = 1, kSearchMerge = 2 };

/// One run's counters, or the sum of several runs' (`operator+=`): sums
/// add, and the gauges (`pool_capacity_bytes`, `pool_used_bytes`,
/// `pool_estimate_bytes`, `block_time_ns_max`) keep the maximum.
struct CountersSnapshot {
  // Chunk pool.
  std::uint64_t pool_alloc_bytes = 0;   ///< bytes successfully allocated
  std::uint64_t pool_denials = 0;       ///< failed allocations (block-level)
  std::uint64_t pool_capacity_bytes = 0;  ///< high-water pool capacity
  std::uint64_t pool_used_bytes = 0;      ///< high-water pool usage
  /// High-water *initial* pool sizing (plan or estimator output) — compare
  /// against pool_used_bytes/pool_capacity_bytes to observe estimate error.
  std::uint64_t pool_estimate_bytes = 0;
  std::uint64_t restarts = 0;             ///< host restart rounds
  // ESC.
  std::uint64_t esc_blocks = 0;       ///< ESC block executions (incl. relaunches)
  std::uint64_t esc_iterations = 0;   ///< local ESC iterations, summed
  std::array<std::uint64_t, kEscHistBuckets> esc_iteration_hist{};
  // Chunks.
  std::uint64_t chunks_written = 0;
  std::uint64_t long_row_chunks = 0;
  // Merge.
  std::array<std::uint64_t, 3> merge_case_rows{};  ///< rows per Multi/Path/Search
  std::uint64_t merge_windows = 0;                 ///< merge windows written
  // Block host-time attribution (ESC and merge blocks).
  std::uint64_t blocks_executed = 0;
  std::uint64_t block_time_ns_sum = 0;
  std::uint64_t block_time_ns_max = 0;

  CountersSnapshot& operator+=(const CountersSnapshot& o);
};

/// Histogram bucket of an ESC block that ran `iterations` local iterations.
[[nodiscard]] constexpr std::size_t esc_hist_bucket(std::uint64_t iterations) {
  return iterations < kEscHistBuckets ? static_cast<std::size_t>(iterations)
                                      : kEscHistBuckets - 1;
}

/// Host time of one run's blocks, summed across the threads that run them:
/// atomics, because block bodies add to it concurrently (`ns_max` is a max
/// gauge raised by CAS). The pipeline folds it into the run's record
/// (`blocks_executed`, `block_time_ns_sum/max`).
struct BlockTimes {
  std::atomic<std::uint64_t> blocks{0};
  std::atomic<std::uint64_t> ns_sum{0};
  std::atomic<std::uint64_t> ns_max{0};

  void fold_into(CountersSnapshot& record) const;
};

/// RAII timer around one block body: adds the body's host time to `sink`
/// when it closes. A null sink takes no clock reads.
class BlockTimer {
 public:
  explicit BlockTimer(BlockTimes* sink) : sink_(sink) {
    if (sink_) start_ = std::chrono::steady_clock::now();
  }
  ~BlockTimer();

  BlockTimer(const BlockTimer&) = delete;
  BlockTimer& operator=(const BlockTimer&) = delete;

 private:
  BlockTimes* sink_;
  std::chrono::steady_clock::time_point start_{};
};

/// One recorded span. Wall times are seconds relative to the session epoch;
/// `sim_time_s` is the simulated kernel time attributed to the span (0 for
/// pure host-side spans).
struct SpanRecord {
  std::string name;
  SpanId parent = kNoSpan;
  std::uint32_t thread = 0;  ///< dense per-session thread slot
  double start_s = 0.0;
  double end_s = 0.0;
  double sim_time_s = 0.0;
};

class TraceSession {
 public:
  TraceSession() : epoch_(std::chrono::steady_clock::now()) {}

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Open a span on the calling thread; its parent is the thread's innermost
  /// open span. Returns the id to pass to `end_span`.
  SpanId begin_span(std::string_view name) ACS_EXCLUDES(m_);

  /// Close span `id`, attributing `sim_time_s` of simulated time to it.
  void end_span(SpanId id, double sim_time_s = 0.0) ACS_EXCLUDES(m_);

  /// Attribute additional simulated time to an open or closed span.
  void add_sim_time(SpanId id, double sim_time_s) ACS_EXCLUDES(m_);

  /// Detail mode: producers additionally record fine-grained block-level
  /// spans (per ESC iteration, per merge window). Off by default — stage
  /// spans and counters are cheap; block spans are not.
  // mo: advisory flag — flipping detail mid-run only changes which spans
  // mo: the producers record, never data integrity.
  void set_detail(bool on) { detail_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool detail() const {
    return detail_.load(std::memory_order_relaxed);  // mo: see set_detail
  }

  /// Add one finished run's record (`CountersSnapshot::operator+=`).
  void add_counters(const CountersSnapshot& run) ACS_EXCLUDES(m_);
  /// Copy of the counters of every run added so far.
  [[nodiscard]] CountersSnapshot counters_snapshot() const ACS_EXCLUDES(m_);

  /// Copy of all spans recorded so far (closed or still open).
  [[nodiscard]] std::vector<SpanRecord> spans() const ACS_EXCLUDES(m_);
  [[nodiscard]] std::size_t span_count() const ACS_EXCLUDES(m_);

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  struct ThreadState {
    std::uint32_t slot = 0;
    std::vector<SpanId> stack;
  };

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> detail_{false};
  mutable acs::Mutex m_;
  CountersSnapshot counters_ ACS_GUARDED_BY(m_);
  std::vector<SpanRecord> spans_ ACS_GUARDED_BY(m_);
  std::unordered_map<std::thread::id, ThreadState> threads_ ACS_GUARDED_BY(m_);
};

/// RAII span: opens on construction (no-op for a null session), closes on
/// destruction with the accumulated simulated time.
class ScopedSpan {
 public:
  ScopedSpan(TraceSession* session, std::string_view name) : session_(session) {
    if (session_) id_ = session_->begin_span(name);
  }
  ~ScopedSpan() {
    if (session_) session_->end_span(id_, sim_time_s_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attribute simulated kernel time to this span (added on close).
  void add_sim_time(double s) { sim_time_s_ += s; }
  [[nodiscard]] TraceSession* session() const { return session_; }
  [[nodiscard]] SpanId id() const { return id_; }

 private:
  TraceSession* session_;
  SpanId id_ = kNoSpan;
  double sim_time_s_ = 0.0;
};

}  // namespace acs::trace

// --- Span macros ------------------------------------------------------------
// `session` is always a (possibly null) `acs::trace::TraceSession*`; both
// macros are no-ops on null.

#define ACS_TRACE_CONCAT_INNER(a, b) a##b
#define ACS_TRACE_CONCAT(a, b) ACS_TRACE_CONCAT_INNER(a, b)

/// Named RAII span usable as a local variable (attach sim time to it).
#define ACS_TRACE_SPAN(var, session, name) \
  ::acs::trace::ScopedSpan var((session), (name))

/// Anonymous scope span.
#define ACS_TRACE_SCOPE(session, name) \
  ACS_TRACE_SPAN(ACS_TRACE_CONCAT(acs_trace_scope_, __LINE__), session, name)
