/// Tests of the stage-level observability layer (src/trace/): span tree
/// nesting and ordering, cross-thread counter aggregation, exporter golden
/// output, metrics snapshots, the pipeline's one trace record per run, and
/// the zero-side-effects guarantee of disabled tracing on the core pipeline.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/acspgemm.hpp"
#include "fault/policies.hpp"
#include "matrix/generators.hpp"
#include "runtime/engine.hpp"
#include "trace/exporters.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace acs::trace {
namespace {

// --- Span tree ------------------------------------------------------------

TEST(TraceSession, SpansNestPerThreadAndRecordSimTime) {
  TraceSession s;
  const SpanId root = s.begin_span("multiply");
  const SpanId glb = s.begin_span("GLB");
  s.end_span(glb, 0.25);
  const SpanId esc = s.begin_span("ESC");
  const SpanId inner = s.begin_span("esc.iteration");
  s.end_span(inner, 0.125);
  s.end_span(esc, 0.5);
  s.end_span(root);

  const auto spans = s.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[root].name, "multiply");
  EXPECT_EQ(spans[root].parent, kNoSpan);
  EXPECT_EQ(spans[glb].parent, root);
  EXPECT_EQ(spans[esc].parent, root);
  EXPECT_EQ(spans[inner].parent, esc);
  EXPECT_DOUBLE_EQ(spans[glb].sim_time_s, 0.25);
  EXPECT_DOUBLE_EQ(spans[esc].sim_time_s, 0.5);
  // Same thread => same slot; wall times are monotone within the thread.
  for (const auto& sp : spans) {
    EXPECT_EQ(sp.thread, 0u);
    EXPECT_GE(sp.end_s, sp.start_s);
  }
  EXPECT_LE(spans[root].start_s, spans[glb].start_s);
  EXPECT_LE(spans[glb].end_s, spans[esc].start_s);
}

TEST(TraceSession, AddSimTimeAccumulatesOnOpenSpan) {
  TraceSession s;
  const SpanId id = s.begin_span("ESC");
  s.add_sim_time(id, 0.5);
  s.add_sim_time(id, 0.25);
  s.end_span(id, 0.25);
  EXPECT_DOUBLE_EQ(s.spans()[id].sim_time_s, 1.0);
}

TEST(TraceSession, ScopedSpanOnNullSessionIsNoop) {
  ScopedSpan span(nullptr, "anything");
  span.add_sim_time(1.0);
  EXPECT_EQ(span.session(), nullptr);
  EXPECT_EQ(span.id(), kNoSpan);
}

TEST(TraceSession, ThreadsKeepIndependentParentStacks) {
  TraceSession s;
  constexpr int kThreads = 4;
  constexpr int kBumps = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&s] {
      ScopedSpan outer(&s, "worker");
      for (int i = 0; i < kBumps; ++i) {
        CountersSnapshot run;
        run.esc_iterations = 1;
        run.pool_used_bytes = static_cast<std::uint64_t>(i);
        s.add_counters(run);
      }
      ScopedSpan inner(&s, "inner");
    });
  }
  for (auto& w : workers) w.join();

  const auto spans = s.spans();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  // Every "inner" span's parent is a "worker" span on the *same* thread
  // slot — concurrent spans never nest under another thread's open span.
  int inners = 0;
  for (const auto& sp : spans) {
    if (sp.name != "inner") continue;
    ++inners;
    ASSERT_NE(sp.parent, kNoSpan);
    EXPECT_EQ(spans[sp.parent].name, "worker");
    EXPECT_EQ(spans[sp.parent].thread, sp.thread);
  }
  EXPECT_EQ(inners, kThreads);

  // Counter sums aggregate across threads; gauges keep the max.
  const CountersSnapshot c = s.counters_snapshot();
  EXPECT_EQ(c.esc_iterations, static_cast<std::uint64_t>(kThreads * kBumps));
  EXPECT_EQ(c.pool_used_bytes, static_cast<std::uint64_t>(kBumps - 1));
}

TEST(Counters, EscHistogramBucketsAndSnapshotSum) {
  CountersSnapshot run;
  // 50 is beyond the last bucket, so it is clamped into it.
  for (const std::uint64_t iterations : {1u, 2u, 2u, 7u, 50u}) {
    ++run.esc_blocks;
    run.esc_iterations += iterations;
    ++run.esc_iteration_hist[esc_hist_bucket(iterations)];
  }
  TraceSession session;
  session.add_counters(run);
  const CountersSnapshot s = session.counters_snapshot();
  EXPECT_EQ(s.esc_blocks, 5u);
  EXPECT_EQ(s.esc_iterations, 62u);
  EXPECT_EQ(s.esc_iteration_hist[1], 1u);
  EXPECT_EQ(s.esc_iteration_hist[2], 2u);
  EXPECT_EQ(s.esc_iteration_hist[kEscHistBuckets - 1], 2u);

  CountersSnapshot sum = s;
  sum += s;
  EXPECT_EQ(sum.esc_blocks, 10u);
  EXPECT_EQ(sum.esc_iterations, 124u);
}

// --- Exporters (golden output, wall-clock fields excluded) ----------------

/// The deterministic fixture the golden strings below are written against.
TraceSession& golden_session() {
  static TraceSession* s = [] {
    auto* t = new TraceSession;
    const SpanId root = t->begin_span("multiply");
    const SpanId glb = t->begin_span("GLB");
    t->end_span(glb, 0.25);
    const SpanId esc = t->begin_span("ESC");
    t->end_span(esc, 0.5);
    t->end_span(root);
    CountersSnapshot run;
    run.restarts = 2;
    run.esc_blocks = 1;
    run.esc_iterations = 3;
    run.esc_iteration_hist[esc_hist_bucket(3)] = 1;
    t->add_counters(run);
    return t;
  }();
  return *s;
}

TEST(Exporters, ChromeJsonGolden) {
  ExportOptions o;
  o.include_wall = false;
  // Spans are laid out on the simulated timeline: the root's duration is
  // the sim time of its subtree, children placed in creation order.
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "  {\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", \"args\": "
      "{\"name\": \"acspgemm sim timeline\"}},\n"
      "  {\"name\": \"multiply\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
      "\"ts\": 0.000, \"dur\": 750000.000, \"args\": {\"sim_s\": 0}},\n"
      "  {\"name\": \"GLB\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
      "\"ts\": 0.000, \"dur\": 250000.000, \"args\": {\"sim_s\": 0.25}},\n"
      "  {\"name\": \"ESC\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
      "\"ts\": 250000.000, \"dur\": 500000.000, \"args\": {\"sim_s\": 0.5}}\n"
      "]}\n";
  EXPECT_EQ(to_chrome_json(golden_session(), o), expected);
}

TEST(Exporters, TableListsSpansAndCounters) {
  const std::string table = to_table(golden_session());
  EXPECT_NE(table.find("multiply"), std::string::npos);
  EXPECT_NE(table.find("GLB"), std::string::npos);
  EXPECT_NE(table.find("restarts=2"), std::string::npos);
  EXPECT_NE(table.find("esc_iterations=3"), std::string::npos);
}

TEST(Exporters, SimStageTotalsFiltersBySubtree) {
  TraceSession s;
  const SpanId r1 = s.begin_span("job1");
  const SpanId e1 = s.begin_span("ESC");
  s.end_span(e1, 1.0);
  s.end_span(r1);
  const SpanId r2 = s.begin_span("job2");
  const SpanId e2 = s.begin_span("ESC");
  s.end_span(e2, 2.0);
  const SpanId cc = s.begin_span("CC");
  s.end_span(cc, 0.5);
  s.end_span(r2);

  const auto spans = s.spans();
  const auto all = sim_stage_totals(spans);
  EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(stage_index("ESC"))], 3.0);
  const auto only2 = sim_stage_totals(spans, r2);
  EXPECT_DOUBLE_EQ(only2[static_cast<std::size_t>(stage_index("ESC"))], 2.0);
  EXPECT_DOUBLE_EQ(only2[static_cast<std::size_t>(stage_index("CC"))], 0.5);
  const auto only1 = sim_stage_totals(spans, r1);
  EXPECT_DOUBLE_EQ(only1[static_cast<std::size_t>(stage_index("ESC"))], 1.0);
}

TEST(Metrics, SnapshotAggregationSumsCountsAndMaxesGauges) {
  MetricsSnapshot a;
  a.jobs = 1;
  a.sim_time_s = 1.0;
  a.counters.restarts = 2;
  a.counters.pool_capacity_bytes = 100;
  MetricsSnapshot b;
  b.jobs = 2;
  b.sim_time_s = 0.5;
  b.counters.restarts = 1;
  b.counters.pool_capacity_bytes = 60;
  a += b;
  EXPECT_EQ(a.jobs, 3u);
  EXPECT_DOUBLE_EQ(a.sim_time_s, 1.5);
  EXPECT_EQ(a.counters.restarts, 3u);
  // High-water gauge, not summed.
  EXPECT_EQ(a.counters.pool_capacity_bytes, 100u);
}

TEST(Metrics, StageIndexMatchesCanonicalOrder) {
  for (std::size_t i = 0; i < kNumStages; ++i)
    EXPECT_EQ(stage_index(kStageNames[i]), static_cast<int>(i));
  EXPECT_EQ(stage_index("multiply"), -1);
  EXPECT_EQ(stage_index(""), -1);
}

// --- Pipeline integration -------------------------------------------------

TEST(PipelineTracing, RecordsStageSpansMatchingStats) {
  // Each input meets each Config at 1 and 4 scheduler threads. The Configs
  // reach the paths whose counts are otherwise zero: Config 1 restarts, 2
  // runs Path and Search Merge, 3 writes pointer chunks, 4 injects denials.
  const std::vector<Csr<double>> inputs = {
      gen_uniform_random<double>(400, 400, 7.0, 2.0, 91),
      gen_powerlaw<double>(300, 300, 5.0, 1.6, 120, 303)};
  fault::SeededProbabilisticPolicy denials(95, 0.25);
  std::vector<Config> configs(5);
  configs[1].pool_override_bytes = 16 << 10;
  configs[2].nnz_per_block = 32;
  configs[2].path_merge_max_chunks = 2;
  configs[3].long_row_threshold = 7;
  configs[4].alloc_policy = &denials;

  int restarts = 0, path = 0, search = 0, pointer_chunks = 0, injected = 0;
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("input " + std::to_string(in) + ", config " +
                     std::to_string(k) + ", " + std::to_string(threads) +
                     " threads");
        TraceSession session;
        Config cfg = configs[k];
        cfg.trace = &session;
        cfg.scheduler_threads = threads;
        SpgemmStats stats;
        multiply(inputs[in], inputs[in], cfg, &stats);

        const auto totals = sim_stage_totals(session.spans());
        double span_sim = 0.0;
        for (std::size_t i = 0; i < kNumStages; ++i) {
          span_sim += totals[i];
          EXPECT_NEAR(totals[i], stats.stage_time(kStageNames[i]), 1e-12)
              << kStageNames[i];
        }
        EXPECT_NEAR(span_sim, stats.sim_time_s, 1e-12);

        const CountersSnapshot c = session.counters_snapshot();
        EXPECT_EQ(c.esc_iterations, stats.esc_iterations);
        EXPECT_EQ(c.chunks_written, stats.chunks_created);
        EXPECT_EQ(c.long_row_chunks, stats.long_row_chunks);
        EXPECT_EQ(c.restarts, static_cast<std::uint64_t>(stats.restarts));
        EXPECT_EQ(c.pool_denials, stats.pool_denials);
        EXPECT_EQ(c.pool_capacity_bytes, stats.pool_bytes);
        EXPECT_EQ(c.pool_used_bytes, stats.pool_used_bytes);
        EXPECT_EQ(c.pool_estimate_bytes, stats.pool_estimate_bytes);
        EXPECT_EQ(c.pool_alloc_bytes, c.pool_used_bytes);
        EXPECT_GT(c.pool_estimate_bytes, 0u);  // cold runs record it
        std::uint64_t case_rows = 0;
        for (const std::uint64_t rows : c.merge_case_rows) case_rows += rows;
        EXPECT_EQ(case_rows, stats.merged_rows);
        std::uint64_t hist_blocks = 0;
        for (const std::uint64_t blocks : c.esc_iteration_hist)
          hist_blocks += blocks;
        EXPECT_EQ(hist_blocks, c.esc_blocks);
        EXPECT_GE(c.blocks_executed, c.esc_blocks);  // block attribution
        EXPECT_GE(c.block_time_ns_max, 1u);
        EXPECT_GE(c.block_time_ns_sum, c.block_time_ns_max);

        restarts += c.restarts > 0;
        path += c.merge_case_rows[kPathMerge] > 0;
        search += c.merge_case_rows[kSearchMerge] > 0;
        pointer_chunks += c.long_row_chunks > 0;
        injected += cfg.alloc_policy != nullptr && c.pool_denials > 0;
      }
    }
  }
  EXPECT_GT(restarts, 0);
  EXPECT_GT(path, 0);
  EXPECT_GT(search, 0);
  EXPECT_GT(pointer_chunks, 0);
  EXPECT_GT(injected, 0);
}

TEST(PipelineTracing, EngineJobsSharingASessionAddUp) {
  // Two jobs on a 2-worker NativeCpu engine add their records to one
  // session, possibly at once: its sums are the sums of the jobs' stats and
  // its gauges the larger of the two.
  runtime::EngineConfig ec;
  ec.arch = arch::ArchId::kNativeCpu;
  ec.workers = 2;
  ec.native_threads = 2;
  runtime::Engine<double> engine(ec);
  fault::SeededProbabilisticPolicy denials(96, 0.25);
  TraceSession session;
  Config cfg;
  cfg.trace = &session;
  cfg.alloc_policy = &denials;
  const auto a = gen_uniform_random<double>(400, 400, 7.0, 2.0, 97);
  const auto b = gen_powerlaw<double>(300, 300, 5.0, 1.6, 120, 98);
  auto h1 = engine.submit(a, a, cfg);
  auto h2 = engine.submit(b, b, cfg);
  const SpgemmStats& s1 = h1.result().stats;
  const SpgemmStats& s2 = h2.result().stats;

  const CountersSnapshot c = session.counters_snapshot();
  EXPECT_GT(c.restarts, 0u);
  EXPECT_EQ(c.restarts, static_cast<std::uint64_t>(s1.restarts + s2.restarts));
  EXPECT_EQ(c.pool_denials, s1.pool_denials + s2.pool_denials);
  EXPECT_EQ(c.esc_iterations, s1.esc_iterations + s2.esc_iterations);
  EXPECT_EQ(c.chunks_written, s1.chunks_created + s2.chunks_created);
  EXPECT_EQ(c.long_row_chunks, s1.long_row_chunks + s2.long_row_chunks);
  EXPECT_EQ(c.pool_alloc_bytes, s1.pool_used_bytes + s2.pool_used_bytes);
  EXPECT_EQ(c.pool_capacity_bytes, std::max(s1.pool_bytes, s2.pool_bytes));
  EXPECT_EQ(c.pool_used_bytes,
            std::max(s1.pool_used_bytes, s2.pool_used_bytes));
  EXPECT_EQ(c.pool_estimate_bytes,
            std::max(s1.pool_estimate_bytes, s2.pool_estimate_bytes));
  std::uint64_t case_rows = 0;
  for (const std::uint64_t rows : c.merge_case_rows) case_rows += rows;
  EXPECT_EQ(case_rows, s1.merged_rows + s2.merged_rows);
}

TEST(PipelineTracing, DetailModeAddsBlockLevelSpans) {
  const auto a = gen_uniform_random<double>(300, 300, 6.0, 2.0, 92);
  TraceSession coarse;
  Config cfg;
  cfg.trace = &coarse;
  multiply(a, a, cfg);

  TraceSession fine;
  fine.set_detail(true);
  cfg.trace = &fine;
  multiply(a, a, cfg);

  auto count = [](const TraceSession& s, const std::string& name) {
    std::size_t n = 0;
    for (const auto& sp : s.spans())
      if (sp.name == name) ++n;
    return n;
  };
  EXPECT_EQ(count(coarse, "esc.iteration"), 0u);
  EXPECT_GT(count(fine, "esc.iteration"), 0u);
}

TEST(PipelineTracing, DisabledTracingHasZeroSideEffects) {
  // The overhead policy's observable half: running with a session attached
  // changes neither the result bits nor any SpgemmStats field.
  const auto a = gen_powerlaw<double>(400, 400, 6.0, 1.6, 150, 93);
  Config plain;
  SpgemmStats without;
  const auto c1 = multiply(a, a, plain, &without);

  TraceSession session;
  Config traced = plain;
  traced.trace = &session;
  SpgemmStats with;
  const auto c2 = multiply(a, a, traced, &with);

  EXPECT_TRUE(c1.equals_exact(c2));
  EXPECT_EQ(without.sim_time_s, with.sim_time_s);
  EXPECT_EQ(without.restarts, with.restarts);
  EXPECT_EQ(without.pool_bytes, with.pool_bytes);
  EXPECT_EQ(without.pool_used_bytes, with.pool_used_bytes);
  EXPECT_EQ(without.pool_estimate_bytes, with.pool_estimate_bytes);
  EXPECT_EQ(without.chunks_created, with.chunks_created);
  EXPECT_EQ(without.esc_iterations, with.esc_iterations);
  EXPECT_EQ(without.merged_rows, with.merged_rows);
  ASSERT_EQ(without.stage_times_s.size(), with.stage_times_s.size());
  for (std::size_t i = 0; i < with.stage_times_s.size(); ++i) {
    EXPECT_EQ(without.stage_times_s[i].first, with.stage_times_s[i].first);
    EXPECT_EQ(without.stage_times_s[i].second, with.stage_times_s[i].second);
  }
  EXPECT_GT(session.span_count(), 0u);  // the session did record something
}

TEST(PipelineTracing, SpgemmStatsConvertToMetricsSnapshot) {
  const auto a = gen_uniform_random<float>(300, 300, 5.0, 1.0, 94);
  SpgemmStats stats;
  multiply(a, a, Config{}, &stats);
  const trace::MetricsSnapshot m = to_metrics_snapshot(stats);
  EXPECT_EQ(m.jobs, 1u);
  EXPECT_DOUBLE_EQ(m.sim_time_s, stats.sim_time_s);
  EXPECT_EQ(m.counters.chunks_written, stats.chunks_created);
  EXPECT_EQ(m.counters.esc_iterations, stats.esc_iterations);
  EXPECT_EQ(m.counters.pool_capacity_bytes, stats.pool_bytes);
  double stage_sum = 0.0;
  for (double t : m.stage_sim_time_s) stage_sum += t;
  EXPECT_NEAR(stage_sum, stats.sim_time_s, 1e-12);
}

}  // namespace
}  // namespace acs::trace
