#include "core/acspgemm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "arch/arch.hpp"
#include "arch/invariants.hpp"  // compile-time proofs ride every build
#include "core/esc_block.hpp"
#include "core/invariants.hpp"  // compile-time proofs ride every build
#include "core/merge.hpp"
#include "estimate/estimator.hpp"
#include "matrix/stats.hpp"
#include "sim/cost_model.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace acs {
namespace {

using sim::uniform_block_split;

/// Output entries per chunk-copy task. An output under two grains, or a
/// single-threaded scheduler, copies as one task, which the scheduler runs
/// inline: a dispatch would cost more than it saves.
constexpr std::size_t kCopyGrain = std::size_t{1} << 18;

/// Fault in slice `part` of `parts` of the whole pages inside
/// [data, data + bytes), so later writes to them take no page fault. Only
/// a hint: without MADV_POPULATE_WRITE (other platforms, or Linux before
/// 5.14, which answers EINVAL) the first write faults the pages in.
void prefault_pages(void* data, std::size_t bytes, std::size_t part,
                    std::size_t parts) {
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // Bytes before the first whole page.
  const std::size_t head =
      (page - reinterpret_cast<std::uintptr_t>(data) % page) % page;
  if (bytes <= head) return;
  const std::size_t pages = (bytes - head) / page;
  const std::size_t lo = pages * part / parts;
  const std::size_t hi = pages * (part + 1) / parts;
  if (lo < hi)
    (void)madvise(static_cast<char*>(data) + head + lo * page,
                  (hi - lo) * page, MADV_POPULATE_WRITE);
#else
  (void)data;
  (void)bytes;
  (void)part;
  (void)parts;
#endif
}

template <class T>
class Pipeline {
 public:
  Pipeline(const Csr<T>& a, const Csr<T>& b, const Config& cfg,
           SpgemmPlan& plan, SpgemmStats& stats,
           sim::BlockScheduler* scheduler)
      : a_(a),
        b_(b),
        cfg_(cfg),
        stats_(stats),
        plan_(plan),
        trace_(cfg.trace),
        timed_blocks_(cfg.trace ? &block_times_ : nullptr),
        own_scheduler_(scheduler ? 1 : cfg.scheduler_threads),
        scheduler_(scheduler ? *scheduler : own_scheduler_),
        initial_pool_(validated_pool_bytes(a, b, cfg, plan)),
        pool_(initial_pool_) {
    // Fault-injection hook (core/chunk.hpp): denials look exactly like pool
    // exhaustion, so they exercise the restart protocol on demand.
    pool_.set_policy(cfg.alloc_policy);
  }

  Csr<T> run() {
    ACS_TRACE_SCOPE(trace_, "multiply");
    stats_.intermediate_products = intermediate_products(a_, b_);
    global_load_balance();
    esc_stage();
    register_segments();
    merge_stage();
    Csr<T> c = chunk_copy();
    finalize_stats();
    return c;
  }

 private:
  /// The run's initial pool sizing, after the operands and Config pass
  /// `validate` — the sampled estimate indexes B's rows by A's column ids.
  static std::size_t validated_pool_bytes(const Csr<T>& a, const Csr<T>& b,
                                          const Config& cfg,
                                          const SpgemmPlan& plan) {
    validate(a, b, cfg);
    return plan.pool_bytes ? plan.pool_bytes
                           : estimate_chunk_pool_bytes(a, b, cfg);
  }

  static void validate(const Csr<T>& a, const Csr<T>& b, const Config& cfg) {
    if (a.cols != b.rows)
      throw std::invalid_argument("acspgemm: dimension mismatch (A.cols != B.rows)");
    if (cfg.validate_inputs) {
      if (const auto err = a.validate(); !err.empty())
        throw std::invalid_argument("acspgemm: invalid A: " + err);
      if (const auto err = b.validate(); !err.empty())
        throw std::invalid_argument("acspgemm: invalid B: " + err);
    }
    if (cfg.threads <= 0 || cfg.nnz_per_block <= 0 ||
        cfg.elements_per_thread <= 0)
      throw std::invalid_argument("acspgemm: non-positive block configuration");
    if (cfg.retain_per_thread < 0 ||
        cfg.retain_per_thread >= cfg.elements_per_thread)
      throw std::invalid_argument(
          "acspgemm: retain_per_thread must be in [0, elements_per_thread)");
    if (!(cfg.pool_growth_factor > 1.0))
      throw std::invalid_argument(
          "acspgemm: pool_growth_factor must be > 1 (growth must make "
          "progress every restart)");
    if (cfg.temp_capacity() > 32767)
      throw std::invalid_argument(
          "acspgemm: temp capacity exceeds the 15-bit compaction counters");
    // The paper's claim that the working set fits in on-chip memory,
    // enforced: keys + values + WDState + scan states must fit.
    if (!fits_device(cfg, sizeof(T)))
      throw std::length_error(
          "acspgemm: ESC working set exceeds the " +
          std::to_string(arch::arch_info(cfg.arch).device.scratchpad_bytes) +
          "-byte scratchpad");
  }

  /// Record one simulated kernel: schedule its blocks, account the stage
  /// time, aggregate metrics, and track the lowest multiprocessor load over
  /// device-filling kernels. Returns the kernel's simulated time so callers
  /// can attribute it to their trace span.
  double record_stage(const char* name,
                      const std::vector<sim::MetricCounters>& blocks) {
    const arch::ArchInfo& backend = arch::arch_info(cfg_.arch);
    if (backend.exec == arch::ExecKind::kNative) {
      // Native backend: the wall clock is what counts, so skip the cost
      // model (pure overhead there) and keep the stage entry at zero sim
      // time. Every kernel charges the same counters on both backends, so
      // the block metrics aggregate exactly as they do when simulated.
      stats_.stage_times_s.emplace_back(name, 0.0);
      for (const auto& bm : blocks) stats_.metrics += bm;
      return 0.0;
    }
    const sim::KernelTiming t = sim::schedule_blocks(blocks, backend.device);
    stats_.stage_times_s.emplace_back(name, t.time_s);
    stats_.sim_time_s += t.time_s;
    for (const auto& bm : blocks) stats_.metrics += bm;
    // Track the lowest load over device-filling kernels only (Table 3's
    // mpL): kernels with fewer blocks than resident slots trivially leave
    // SMs idle and say nothing about load balancing quality.
    const auto resident = static_cast<std::size_t>(
        2 * backend.device.num_sms * backend.device.blocks_per_sm);
    if (blocks.size() >= resident)
      stats_.multiprocessor_load =
          std::min(stats_.multiprocessor_load, t.multiprocessor_load);
    return t.time_s;
  }

  /// One restart round's pool growth ("resize and restart", §3.5): bounded
  /// geometric. The step is (factor - 1) × current capacity — doubling by
  /// default — floored at 64 KB so a tiny override still makes progress and
  /// capped at `pool_growth_max_step_bytes` so a huge pool grows linearly
  /// instead of overshooting. A pool undersized by a factor D therefore
  /// converges in O(log D) restarts; the final capacity feeds back into the
  /// plan (finalize_stats), so warm replays start restart-free.
  void grow_pool_after_restart() {
    const double want = static_cast<double>(pool_.capacity()) *
                        (cfg_.pool_growth_factor - 1.0);
    std::size_t step = want >= static_cast<double>(cfg_.pool_growth_max_step_bytes)
                           ? cfg_.pool_growth_max_step_bytes
                           : static_cast<std::size_t>(want);
    step = std::max(step, std::size_t{64} << 10);
    pool_.grow(step);
  }

  /// Per-round restart bookkeeping shared by the ESC and merge stages.
  void record_restart_round(std::size_t failed_blocks) {
    stats_.pool_denials += failed_blocks;
    if (failed_blocks == 0) return;
    ++stats_.restarts;
    grow_pool_after_restart();
  }

  // --- Stage 1: global load balancing (Algorithm 1). -----------------------
  void global_load_balance() {
    ACS_TRACE_SPAN(span, trace_, "GLB");
    if (plan_.has_load_balance(cfg_, a_.nnz())) {
      // blockRowStarts depends only on A's row pointer; reusing the plan's
      // table skips the kernel entirely (no launch, no simulated time).
      block_row_starts_ = plan_.block_row_starts;
      num_blocks_ = block_row_starts_.size();
      stats_.glb_reused = true;
      stats_.stage_times_s.emplace_back("GLB", 0.0);
      return;
    }
    num_blocks_ = static_cast<std::size_t>(
        divup<offset_t>(a_.nnz(), cfg_.nnz_per_block));
    block_row_starts_.assign(num_blocks_, 0);
    // Sequential equivalent of Algorithm 1's one-thread-per-row pass.
    for (index_t row = 0; row < a_.rows; ++row) {
      const offset_t lo = a_.row_ptr[usize(row)];
      const offset_t hi = a_.row_ptr[usize(row) + 1];
      if (lo == hi) continue;
      offset_t blk = divup<offset_t>(lo, cfg_.nnz_per_block);
      const offset_t blk_end = (hi - 1) / cfg_.nnz_per_block;
      for (; blk <= blk_end; ++blk)
        block_row_starts_[static_cast<std::size_t>(blk)] = row;
    }
    sim::MetricCounters m;
    m.global_bytes_coalesced =
        (static_cast<std::uint64_t>(a_.rows) + num_blocks_) * sizeof(index_t);
    m.scan_elements = static_cast<std::uint64_t>(a_.rows);
    span.add_sim_time(record_stage(
        "GLB", uniform_block_split(divup<std::size_t>(
                                  std::max<std::size_t>(
                                      static_cast<std::size_t>(a_.rows), 1),
                                  static_cast<std::size_t>(cfg_.threads)),
                              m)));
  }

  // --- Stage 2: adaptive chunk-based ESC with restarts. --------------------
  void esc_stage() {
    block_states_.assign(num_blocks_, BlockState<T>{});
    std::vector<std::size_t> pending(num_blocks_);
    for (std::size_t i = 0; i < num_blocks_; ++i) pending[i] = i;

    while (!pending.empty()) {
      // One span per kernel launch; restart relaunches show up as further
      // "ESC" spans whose sim times aggregate into the same stage total.
      ACS_TRACE_SPAN(span, trace_, "ESC");
      std::vector<EscBlockResult<T>> results(pending.size());
      scheduler_.for_each_block(pending.size(), [&](std::size_t i) {
        trace::BlockTimer timer(timed_blocks_);
        results[i] = run_esc_block<T>(a_, b_, block_row_starts_, pending[i],
                                      cfg_, pool_, block_states_[pending[i]]);
      });

      std::vector<sim::MetricCounters> launch_metrics;
      launch_metrics.reserve(results.size());
      std::vector<std::size_t> failed;
      for (std::size_t i = 0; i < results.size(); ++i) {
        launch_metrics.push_back(results[i].metrics);
        const auto iterations = static_cast<std::size_t>(results[i].iterations);
        stats_.esc_iterations += iterations;
        ++tallies_.esc_blocks;
        ++tallies_.esc_iteration_hist[trace::esc_hist_bucket(iterations)];
        for (auto& chunk : results[i].chunks) {
          if (chunk.is_long_row) ++stats_.long_row_chunks;
          chunks_.push_back(std::move(chunk));
        }
        if (results[i].needs_restart) failed.push_back(pending[i]);
      }
      span.add_sim_time(record_stage("ESC", launch_metrics));
      record_restart_round(failed.size());
      pending = std::move(failed);
    }
  }

  // --- Build per-row segment lists and row counters from the chunks. -------
  void register_segments() {
    // Deterministic global chunk order (block id, per-block counter); the
    // paper sorts the scheduler-ordered lists by this key before merging.
    std::sort(chunks_.begin(), chunks_.end(),
              [](const Chunk<T>& x, const Chunk<T>& y) { return x.order < y.order; });

    segments_.assign(static_cast<std::size_t>(a_.rows), {});
    row_nnz_.assign(static_cast<std::size_t>(a_.rows), 0);
    for (std::size_t ci = 0; ci < chunks_.size(); ++ci) {
      const Chunk<T>& chunk = chunks_[ci];
      if (chunk.is_long_row) {
        segments_[static_cast<std::size_t>(chunk.rows[0])].push_back(
            {ci, 0, chunk.long_len, chunk.order});
        row_nnz_[static_cast<std::size_t>(chunk.rows[0])] += chunk.long_len;
        continue;
      }
      for (std::size_t r = 0; r < chunk.rows.size(); ++r) {
        const index_t len = chunk.row_offsets[r + 1] - chunk.row_offsets[r];
        segments_[static_cast<std::size_t>(chunk.rows[r])].push_back(
            {ci, chunk.row_offsets[r], len, chunk.order});
        row_nnz_[static_cast<std::size_t>(chunk.rows[r])] += len;
      }
    }
  }

  // --- Stage 3: merge assignment + Multi/Path/Search merge. ----------------
  void merge_stage() {
    std::vector<index_t> shared_rows;
    for (index_t r = 0; r < a_.rows; ++r)
      if (segments_[static_cast<std::size_t>(r)].size() >= 2)
        shared_rows.push_back(r);
    stats_.merged_rows = shared_rows.size();

    // Merge-case assignment (Fig. 7's "MCC"): one prefix scan over the
    // shared rows using the summed row counts. No launch when no row needs
    // merging.
    {
      ACS_TRACE_SPAN(span, trace_, "MCC");
      if (shared_rows.empty()) {
        stats_.stage_times_s.emplace_back("MCC", 0.0);
      } else {
        sim::MetricCounters m;
        m.scan_elements = shared_rows.size();
        m.global_bytes_coalesced = shared_rows.size() * 2 * sizeof(index_t);
        span.add_sim_time(record_stage(
            "MCC", uniform_block_split(
                       divup<std::size_t>(shared_rows.size(),
                                          static_cast<std::size_t>(cfg_.threads)),
                       m)));
      }
    }

    const auto capacity = static_cast<offset_t>(cfg_.temp_capacity());
    std::vector<MergeBatch> multi, path, search;
    MergeBatch current;
    offset_t current_total = 0;
    auto flush_multi = [&] {
      if (!current.rows.empty()) {
        multi.push_back(std::move(current));
        current = {};
        current_total = 0;
      }
    };
    for (index_t row : shared_rows) {
      auto& segs = segments_[static_cast<std::size_t>(row)];
      const offset_t total = row_nnz_[static_cast<std::size_t>(row)];
      if (segs.size() == 2 && total <= capacity) {
        if (current_total + total > capacity) flush_multi();
        current.rows.push_back(row);
        current.segments.push_back(segs);
        current_total += total;
      } else if (segs.size() <=
                 static_cast<std::size_t>(cfg_.path_merge_max_chunks)) {
        path.push_back({{row}, {segs}});
      } else {
        search.push_back({{row}, {segs}});
      }
    }
    flush_multi();
    // Every shared row not sent to Path or Search Merge is Multi Merged.
    tallies_.merge_case_rows = {
        shared_rows.size() - path.size() - search.size(), path.size(),
        search.size()};

    run_merge_kind("MM", MergeKind::Multi, multi);
    run_merge_kind("PM", MergeKind::Path, path);
    run_merge_kind("SM", MergeKind::Search, search);
  }

  void run_merge_kind(const char* stage, MergeKind kind,
                      const std::vector<MergeBatch>& batches) {
    if (batches.empty()) {
      // No kernel launch when there is nothing to merge (and no span: an
      // empty stage would only pad the trace).
      stats_.stage_times_s.emplace_back(stage, 0.0);
      return;
    }
    ACS_TRACE_SPAN(stage_span, trace_, stage);
    // Per task: the windows written so far, where a relaunch resumes.
    std::vector<std::size_t> windows_done(batches.size(), 0);
    std::vector<std::size_t> pending(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) pending[i] = i;

    // Order keys for merged chunks live past the ESC block-id range.
    const auto order_base = static_cast<std::uint32_t>(num_blocks_ + 1);

    while (!pending.empty()) {
      std::vector<MergeOutcome<T>> results(pending.size());
      scheduler_.for_each_block(pending.size(), [&](std::size_t i) {
        trace::BlockTimer timer(timed_blocks_);
        const std::size_t t = pending[i];
        results[i] = run_merge_block<T>(
            batches[t], chunks_, b_, cfg_, pool_, kind, windows_done[t],
            order_base + static_cast<std::uint32_t>(t));
      });

      std::vector<sim::MetricCounters> launch_metrics;
      std::vector<std::size_t> failed;
      for (std::size_t i = 0; i < results.size(); ++i) {
        const std::size_t t = pending[i];
        launch_metrics.push_back(results[i].metrics);
        tallies_.merge_windows += results[i].chunks.size();
        // Append the new chunks and retarget the merged rows' segments.
        std::vector<std::size_t> new_ids;
        for (auto& chunk : results[i].chunks) {
          new_ids.push_back(chunks_.size());
          chunks_.push_back(std::move(chunk));
        }
        if (windows_done[t] == 0 && !new_ids.empty()) {
          // First successful windows of this task: clear old segments.
          for (index_t row : batches[t].rows) {
            segments_[static_cast<std::size_t>(row)].clear();
            row_nnz_[static_cast<std::size_t>(row)] = 0;
          }
        }
        for (std::size_t ci : new_ids) {
          const Chunk<T>& chunk = chunks_[ci];
          for (std::size_t r = 0; r < chunk.rows.size(); ++r) {
            const index_t len =
                chunk.row_offsets[r + 1] - chunk.row_offsets[r];
            segments_[static_cast<std::size_t>(chunk.rows[r])].push_back(
                {ci, chunk.row_offsets[r], len, chunk.order});
            row_nnz_[static_cast<std::size_t>(chunk.rows[r])] += len;
          }
        }
        windows_done[t] = results[i].windows_done;
        if (results[i].needs_restart) failed.push_back(t);
      }
      stage_span.add_sim_time(record_stage(stage, launch_metrics));
      record_restart_round(failed.size());
      pending = std::move(failed);
    }
  }

  // --- Stage 4: output matrix allocation and chunk copy. -------------------
  Csr<T> chunk_copy() {
    ACS_TRACE_SPAN(span, trace_, "CC");
    Csr<T> c;
    c.rows = a_.rows;
    c.cols = b_.cols;
    c.row_ptr.assign(static_cast<std::size_t>(a_.rows) + 1, 0);
    offset_t total = 0;
    for (index_t r = 0; r < a_.rows; ++r) {
      total += row_nnz_[static_cast<std::size_t>(r)];
      c.row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(total);
    }
    if (total > std::numeric_limits<index_t>::max())
      throw std::length_error("acspgemm: output exceeds 32-bit index range");
    const auto n = static_cast<std::size_t>(total);

    // The copy runs as `tasks` row ranges of about kCopyGrain entries each
    // on the scheduler.
    const std::size_t tasks =
        scheduler_.threads() > 1 && n >= 2 * kCopyGrain ? divup(n, kCopyGrain)
                                                        : 1;
    if (tasks > 1) {
      // Arrays this large are typically past the allocator's mmap
      // threshold, so every run maps them afresh, and value-initializing
      // them would fault each page in on this thread. Fault them in on the
      // scheduler first; `resize` then only writes zeros to mapped pages.
      c.col_idx.reserve(n);
      c.values.reserve(n);
      scheduler_.for_each_block(tasks, [&](std::size_t t) {
        prefault_pages(c.col_idx.data(), n * sizeof(index_t), t, tasks);
        prefault_pages(c.values.data(), n * sizeof(T), t, tasks);
      });
    }
    c.col_idx.resize(n);
    c.values.resize(n);

    sim::MetricCounters m;
    m.scan_elements += static_cast<std::uint64_t>(a_.rows);  // row-ptr scan
    m.global_bytes_coalesced +=
        static_cast<std::uint64_t>(a_.rows) * sizeof(index_t) * 2;
    // Task t starts at the first row whose output starts in the t-th share
    // of C's entries. Each task sums its own counters; the sums are
    // integers, so adding them up in task order equals the serial total.
    const auto first_row = [&](std::size_t t) {
      if (t == tasks) return a_.rows;
      const auto target = static_cast<index_t>(n * t / tasks);
      return static_cast<index_t>(
          std::lower_bound(c.row_ptr.begin(), c.row_ptr.end() - 1, target) -
          c.row_ptr.begin());
    };
    std::vector<sim::MetricCounters> task_metrics(tasks);
    scheduler_.for_each_block(tasks, [&](std::size_t t) {
      copy_rows(first_row(t), first_row(t + 1), c, task_metrics[t]);
    });
    for (const sim::MetricCounters& tm : task_metrics) m += tm;

    // One copy block per live chunk (the paper: "each chunk uses a complete
    // block of threads to copy data in a coalesced fashion").
    std::vector<bool> chunk_live(chunks_.size(), false);
    for (index_t r = 0; r < a_.rows; ++r)
      for (const RowSegment& seg : segments_[usize(r)])
        chunk_live[seg.chunk] = true;
    const auto live_chunks = static_cast<std::size_t>(
        std::count(chunk_live.begin(), chunk_live.end(), true));
    span.add_sim_time(record_stage(
        "CC", uniform_block_split(std::max<std::size_t>(live_chunks, 1), m)));
    return c;
  }

  /// Copy rows [lo, hi) of C out of their segments into the slots
  /// `c.row_ptr` assigns them, charging the copy's traffic to `m`.
  void copy_rows(index_t lo, index_t hi, Csr<T>& c,
                 sim::MetricCounters& m) const {
    for (index_t r = lo; r < hi; ++r) {
      index_t out = c.row_ptr[usize(r)];
      for (const RowSegment& seg : segments_[usize(r)]) {
        const Chunk<T>& chunk = chunks_[seg.chunk];
        if (chunk.is_long_row) {
          // Unshared long row: materialize factor × row of B directly.
          const index_t start = b_.row_ptr[usize(chunk.b_row)];
          for (index_t i = 0; i < chunk.long_len; ++i) {
            c.col_idx[static_cast<std::size_t>(out + i)] =
                b_.col_idx[static_cast<std::size_t>(start + i)];
            c.values[static_cast<std::size_t>(out + i)] =
                chunk.factor * b_.values[static_cast<std::size_t>(start + i)];
          }
          m.flops += 2 * static_cast<std::uint64_t>(chunk.long_len);
          m.global_bytes_coalesced +=
              2 * static_cast<std::uint64_t>(chunk.long_len) *
              (sizeof(index_t) + sizeof(T));
        } else {
          const auto sb = static_cast<std::size_t>(seg.begin);
          const auto sl = static_cast<std::size_t>(seg.length);
          std::copy_n(chunk.cols.begin() + static_cast<std::ptrdiff_t>(sb), sl,
                      c.col_idx.begin() + static_cast<std::ptrdiff_t>(out));
          std::copy_n(chunk.vals.begin() + static_cast<std::ptrdiff_t>(sb), sl,
                      c.values.begin() + static_cast<std::ptrdiff_t>(out));
          m.global_bytes_coalesced +=
              2 * static_cast<std::uint64_t>(seg.length) *
              (sizeof(index_t) + sizeof(T));
        }
        out += seg.length;
      }
    }
  }

  void finalize_stats() {
    stats_.pool_bytes = pool_.capacity();
    stats_.pool_used_bytes = pool_.used();
    stats_.pool_estimate_bytes = initial_pool_;
    stats_.chunks_created = chunks_.size();
    // Refresh the plan: the load-balancing table (unless it came from the
    // plan already) and the final pool capacity. The capacity includes any
    // restart growth, so replaying the plan on the same pattern needs no
    // restarts.
    if (!stats_.glb_reused) plan_.block_row_starts = block_row_starts_;
    plan_.nnz_per_block = cfg_.nnz_per_block;
    plan_.nnz_a = a_.nnz();
    plan_.pool_bytes = pool_.capacity();
    plan_.observed_pool_used = pool_.used();
    plan_.observed_restarts = stats_.restarts;
    ++plan_.runs;
    stats_.helper_bytes =
        num_blocks_ * (sizeof(index_t) + 16) +       // blockRowStarts + restart info
        static_cast<std::size_t>(a_.rows) *
            (sizeof(index_t) + 8 + sizeof(index_t)) +  // row counters, list
                                                       // heads, shared rows
        chunks_.size() * 8;                            // chunk pointer array
    if (trace_) trace_->counters().add(trace_record());
  }

  /// The run's one trace record: the facts `stats_` already holds, plus
  /// the tallies only the trace reports.
  [[nodiscard]] trace::CountersSnapshot trace_record() const {
    trace::CountersSnapshot r = tallies_;
    r.pool_alloc_bytes = pool_.used();
    r.pool_denials = stats_.pool_denials;
    r.pool_capacity_bytes = stats_.pool_bytes;
    r.pool_used_bytes = stats_.pool_used_bytes;
    r.pool_estimate_bytes = stats_.pool_estimate_bytes;
    r.restarts = static_cast<std::uint64_t>(stats_.restarts);
    r.esc_iterations = stats_.esc_iterations;
    r.chunks_written = stats_.chunks_created;
    r.long_row_chunks = stats_.long_row_chunks;
    block_times_.fold_into(r);
    return r;
  }

  const Csr<T>& a_;
  const Csr<T>& b_;
  const Config& cfg_;
  SpgemmStats& stats_;
  SpgemmPlan& plan_;
  trace::TraceSession* trace_;
  /// Host time of the ESC and merge blocks; their timers get null when
  /// the run is untraced, so they take no clock reads.
  trace::BlockTimes block_times_;
  trace::BlockTimes* timed_blocks_;
  sim::BlockScheduler own_scheduler_;
  sim::BlockScheduler& scheduler_;
  std::size_t initial_pool_;
  ChunkPool pool_;

  std::size_t num_blocks_ = 0;
  std::vector<index_t> block_row_starts_;
  std::vector<BlockState<T>> block_states_;
  std::vector<Chunk<T>> chunks_;
  std::vector<std::vector<RowSegment>> segments_;
  std::vector<offset_t> row_nnz_;
  /// Counts the trace record adds to what SpgemmStats keeps: ESC block
  /// executions and their iteration histogram, rows per merge case and
  /// merge windows.
  trace::CountersSnapshot tallies_;
};

}  // namespace

template <class T>
std::size_t estimate_chunk_pool_bytes(const Csr<T>& a, const Csr<T>& b,
                                      const Config& cfg) {
  if (cfg.pool_override_bytes > 0) return cfg.pool_override_bytes;
  if (cfg.pool_sizing == PoolSizing::kSampled) {
    estimate::PoolSizingParams p;
    p.chunk_entry_capacity = static_cast<std::size_t>(
        std::max(1, cfg.temp_capacity() - cfg.retain_capacity()));
    p.entry_bytes = kChunkEntryBytes<T>;
    p.chunk_header_bytes = kChunkHeaderBytes;
    p.pointer_chunk_bytes = kPointerChunkBytes;
    p.long_row_threshold =
        cfg.long_row_handling ? cfg.effective_long_row_threshold() : 0;
    p.lower_bound_bytes = cfg.pool_lower_bound_bytes;
    return estimate::plan_pool_bytes(a, b, p).recommended_bytes;
  }
  const double rows_a = std::max<double>(1.0, static_cast<double>(a.rows));
  const double rows_b = std::max<double>(1.0, static_cast<double>(b.rows));
  const double cols_b = std::max<double>(1.0, static_cast<double>(b.cols));
  const double avg_a = static_cast<double>(a.nnz()) / rows_a;
  const double avg_b = static_cast<double>(b.nnz()) / rows_b;
  // The expected nnz(C) if every row had the average number of uniformly
  // distributed entries.
  const double elements =
      estimate::uniform_output_nnz(rows_a, avg_a, avg_b, cols_b);
  const double bytes =
      elements * static_cast<double>(kChunkEntryBytes<T>) *
      cfg.pool_estimate_factor;
  // Saturating conversion: a hub-heavy input times the estimate factor can
  // push `bytes` past the size_t range, and a bare cast would wrap into a
  // tiny pool and a restart storm.
  return std::max(cfg.pool_lower_bound_bytes, estimate::saturate_bytes(bytes));
}

template <class T>
Csr<T> multiply_planned(const Csr<T>& a, const Csr<T>& b, const Config& cfg,
                        SpgemmPlan& plan, SpgemmStats* stats,
                        sim::BlockScheduler* scheduler) {
  SpgemmStats local;
  SpgemmStats& s = stats ? *stats : local;
  s = SpgemmStats{};
  const auto t0 = std::chrono::steady_clock::now();
  Csr<T> c = Pipeline<T>(a, b, cfg, plan, s, scheduler).run();
  s.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return c;
}

template <class T>
Csr<T> multiply(const Csr<T>& a, const Csr<T>& b, const Config& cfg,
                SpgemmStats* stats) {
  SpgemmPlan plan;
  return multiply_planned(a, b, cfg, plan, stats, nullptr);
}

template Csr<float> multiply(const Csr<float>&, const Csr<float>&,
                             const Config&, SpgemmStats*);
template Csr<double> multiply(const Csr<double>&, const Csr<double>&,
                              const Config&, SpgemmStats*);
template Csr<float> multiply_planned(const Csr<float>&, const Csr<float>&,
                                     const Config&, SpgemmPlan&, SpgemmStats*,
                                     sim::BlockScheduler*);
template Csr<double> multiply_planned(const Csr<double>&, const Csr<double>&,
                                      const Config&, SpgemmPlan&, SpgemmStats*,
                                      sim::BlockScheduler*);
template std::size_t estimate_chunk_pool_bytes(const Csr<float>&,
                                               const Csr<float>&,
                                               const Config&);
template std::size_t estimate_chunk_pool_bytes(const Csr<double>&,
                                               const Csr<double>&,
                                               const Config&);

}  // namespace acs
