#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "arch/arch_id.hpp"
#include "core/acspgemm.hpp"
#include "fault/policies.hpp"
#include "matrix/generators.hpp"
#include "runtime/completion.hpp"
#include "runtime/engine.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/pool_arena.hpp"
#include "test_util.hpp"

namespace acs::runtime {
namespace {

/// Deliberately under-provisioned pool: the estimate comes out far below
/// the real requirement, so cold runs restart and warm runs demonstrate
/// the plan's learned sizing.
Config tight_pool_config() {
  Config cfg;
  cfg.pool_lower_bound_bytes = 8 << 10;
  cfg.pool_estimate_factor = 0.02;
  return cfg;
}

Fingerprint key_of(std::uint64_t x) {
  Fingerprint f;
  f.row_ptr_hash = x;
  return f;
}

// --- Fingerprint ----------------------------------------------------------

TEST(Fingerprint, IgnoresValuesTracksStructure) {
  const auto a = gen_uniform_random<double>(200, 200, 6.0, 2.0, 7);
  auto scaled = a;
  for (auto& v : scaled.values) v *= 3.0;
  constexpr auto kArch = arch::ArchId::kSimTitanXp;
  EXPECT_EQ(fingerprint(a, a, kArch), fingerprint(scaled, scaled, kArch));

  const auto other = gen_uniform_random<double>(200, 200, 6.0, 2.0, 8);
  EXPECT_FALSE(fingerprint(a, a, kArch) == fingerprint(other, other, kArch));
}

TEST(Fingerprint, DistinguishesBOperandShape) {
  const auto a = gen_uniform_random<double>(100, 100, 4.0, 1.0, 9);
  const auto b1 = gen_uniform_random<double>(100, 80, 4.0, 1.0, 10);
  const auto b2 = gen_uniform_random<double>(100, 120, 4.0, 1.0, 10);
  constexpr auto kArch = arch::ArchId::kSimTitanXp;
  EXPECT_FALSE(fingerprint(a, b1, kArch) == fingerprint(a, b2, kArch));
}

TEST(Fingerprint, ArchFieldSeparatesBackends) {
  const auto a = gen_uniform_random<double>(100, 100, 4.0, 1.0, 11);
  // Same structure on a different backend is a different key (a plan's
  // learned pool size is arch-specific).
  const Fingerprint titan = fingerprint(a, a, arch::ArchId::kSimTitanXp);
  const Fingerprint native = fingerprint(a, a, arch::ArchId::kNativeCpu);
  const Fingerprint big = fingerprint(a, a, arch::ArchId::kSimBigDevice);
  EXPECT_FALSE(titan == native);
  EXPECT_FALSE(titan == big);
  EXPECT_FALSE(native == big);
  const FingerprintHash h;
  EXPECT_NE(h(titan), h(native));
}

// --- PlanCache ------------------------------------------------------------

TEST(PlanCache, HitMissAndLruEviction) {
  PlanCache cache(2);
  SpgemmPlan p;
  EXPECT_FALSE(cache.lookup(key_of(1), p));

  SpgemmPlan stored;
  stored.pool_bytes = 111;
  cache.store(key_of(1), stored);
  EXPECT_TRUE(cache.lookup(key_of(1), p));
  EXPECT_EQ(p.pool_bytes, 111u);

  cache.store(key_of(2), SpgemmPlan{});
  EXPECT_TRUE(cache.lookup(key_of(1), p));  // make key 2 the LRU entry
  cache.store(key_of(3), SpgemmPlan{});     // evicts key 2
  EXPECT_FALSE(cache.lookup(key_of(2), p));
  EXPECT_TRUE(cache.lookup(key_of(1), p));
  EXPECT_TRUE(cache.lookup(key_of(3), p));

  const auto c = cache.counters();
  EXPECT_EQ(c.insertions, 3u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.hits, 4u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NEAR(c.hit_rate(), 4.0 / 6.0, 1e-12);
}

TEST(PlanCache, StoreRefreshesExistingEntry) {
  PlanCache cache(4);
  SpgemmPlan v1;
  v1.pool_bytes = 100;
  cache.store(key_of(5), v1);
  SpgemmPlan v2;
  v2.pool_bytes = 900;
  cache.store(key_of(5), v2);

  SpgemmPlan out;
  EXPECT_TRUE(cache.lookup(key_of(5), out));
  EXPECT_EQ(out.pool_bytes, 900u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().refreshes, 1u);
}

TEST(PlanCache, ArchKeysAreIsolatedEntries) {
  // A plan learned on one backend must never serve another: the same
  // structural hashes under different arch ids are distinct cache lines.
  PlanCache cache(4);
  Fingerprint titan_key = key_of(42);
  titan_key.arch = static_cast<std::uint32_t>(arch::ArchId::kSimTitanXp);
  Fingerprint native_key = key_of(42);
  native_key.arch = static_cast<std::uint32_t>(arch::ArchId::kNativeCpu);

  SpgemmPlan titan_plan;
  titan_plan.pool_bytes = 111;
  cache.store(titan_key, titan_plan);

  SpgemmPlan out;
  EXPECT_FALSE(cache.lookup(native_key, out));  // cross-arch miss

  SpgemmPlan native_plan;
  native_plan.pool_bytes = 999;
  cache.store(native_key, native_plan);
  EXPECT_EQ(cache.size(), 2u);  // both coexist, no refresh
  ASSERT_TRUE(cache.lookup(titan_key, out));
  EXPECT_EQ(out.pool_bytes, 111u);
  ASSERT_TRUE(cache.lookup(native_key, out));
  EXPECT_EQ(out.pool_bytes, 999u);
}

// --- PoolArena ------------------------------------------------------------

TEST(PoolArena, RecyclesReturnedRegions) {
  PoolArena arena;
  PoolArena::Lease first(arena);
  std::byte* r1 = first.take_region();
  std::byte* r2 = first.take_region();
  EXPECT_NE(r1, r2);
  EXPECT_EQ(first.reused_bytes(), 0u);
  first.give_back(r1);
  first.give_back(r2);
  EXPECT_EQ(arena.free_bytes(), 2 * kPoolRegionBytes);

  // The next job draws both back, then needs one more: a fresh region.
  PoolArena::Lease second(arena);
  std::byte* r3 = second.take_region();
  std::byte* r4 = second.take_region();
  std::byte* r5 = second.take_region();
  EXPECT_TRUE((r3 == r1 && r4 == r2) || (r3 == r2 && r4 == r1));
  EXPECT_EQ(second.reused_bytes(), 2 * kPoolRegionBytes);
  EXPECT_EQ(arena.free_bytes(), 0u);

  const auto c = arena.counters();
  EXPECT_EQ(c.acquires, 5u);
  EXPECT_EQ(c.reuse_hits, 2u);
  EXPECT_EQ(c.reused_bytes, 2 * kPoolRegionBytes);
  EXPECT_EQ(c.fresh_bytes, 3 * kPoolRegionBytes);
  EXPECT_EQ(c.high_water_bytes, 3 * kPoolRegionBytes);
  EXPECT_EQ(c.outstanding, 3u);
  for (std::byte* r : {r3, r4, r5}) second.give_back(r);
  EXPECT_EQ(arena.counters().outstanding, 0u);
  EXPECT_EQ(arena.free_bytes(), 3 * kPoolRegionBytes);
}

TEST(PoolArena, HandsOutTheLastReturnedRegionFirst) {
  // The most recently returned region is the likeliest to have its pages
  // backed still, so it goes out first.
  PoolArena arena;
  PoolArena::Lease lease(arena);
  std::byte* a = lease.take_region();
  std::byte* b = lease.take_region();
  lease.give_back(a);
  lease.give_back(b);
  std::byte* first = lease.take_region();
  std::byte* second = lease.take_region();
  EXPECT_EQ(first, b);
  EXPECT_EQ(second, a);
  lease.give_back(first);
  lease.give_back(second);
}

#if defined(__linux__)
/// Resident set of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}
#endif

TEST(PoolArena, FloorCostsAddressSpaceNotMemory) {
#if defined(__linux__)
  // The default Config's pool is at least the paper's 100 MB floor, yet a
  // small product writes a few pages of it. The arena keeps the regions
  // the call drew, so the resident set after the call still holds every
  // page taking or reserving them touched: taking a region must not touch
  // or zero-fill it.
  const auto a = gen_uniform_random<double>(200, 200, 8.0, 2.0, 71);
  const Config cfg;
  PoolArena arena;
  SpgemmPlan plan;
  SpgemmStats stats;
  const std::size_t before = resident_bytes();
  {
    PoolArena::Lease lease(arena);
    const auto c = multiply_planned(a, a, cfg, plan, &stats, nullptr, &lease);
    EXPECT_TRUE(c.equals_exact(multiply(a, a, cfg)));
  }
  const std::size_t after = resident_bytes();
  EXPECT_GE(stats.pool_bytes, std::size_t{100} << 20);
  EXPECT_GE(arena.free_bytes(), kPoolRegionBytes);  // the regions are kept
  EXPECT_LT(after, before + (std::size_t{16} << 20))
      << "resident set rose by " << (after - before) << " bytes";
#else
  GTEST_SKIP() << "reads /proc/self/statm";
#endif
}

// --- multiply_planned (core plan-in/plan-out entry point) -----------------

TEST(MultiplyPlanned, PlanRoundTripIsBitIdenticalAndSkipsGlb) {
  const auto a = gen_uniform_random<float>(400, 400, 7.0, 2.0, 51);
  const Config cfg;
  SpgemmPlan plan;
  SpgemmStats s1, s2;

  const auto c1 = multiply_planned(a, a, cfg, plan, &s1);
  EXPECT_FALSE(s1.glb_reused);
  EXPECT_EQ(plan.runs, 1u);
  EXPECT_FALSE(plan.block_row_starts.empty());
  EXPECT_GT(plan.pool_bytes, 0u);

  const auto c2 = multiply_planned(a, a, cfg, plan, &s2);
  EXPECT_TRUE(s2.glb_reused);
  EXPECT_EQ(s2.stage_time("GLB"), 0.0);
  EXPECT_TRUE(c1.equals_exact(c2));
  EXPECT_TRUE(c1.equals_exact(multiply(a, a, cfg)));
}

TEST(MultiplyPlanned, LearnedPoolSizeEliminatesRestarts) {
  const auto a = gen_uniform_random<double>(500, 500, 8.0, 2.0, 21);
  const Config cfg = tight_pool_config();
  SpgemmPlan plan;
  SpgemmStats cold, warm;

  const auto c1 = multiply_planned(a, a, cfg, plan, &cold);
  EXPECT_GT(cold.restarts, 0);
  const auto c2 = multiply_planned(a, a, cfg, plan, &warm);
  EXPECT_EQ(warm.restarts, 0);
  EXPECT_TRUE(c1.equals_exact(c2));
}

TEST(MultiplyPlanned, MismatchedPlanIsRebuiltNotMisused) {
  const auto a = gen_uniform_random<float>(300, 300, 6.0, 2.0, 52);
  SpgemmPlan plan;
  Config first;
  first.nnz_per_block = 256;
  multiply_planned(a, a, first, plan);

  Config second = first;
  second.nnz_per_block = 128;
  SpgemmStats s;
  const auto c = multiply_planned(a, a, second, plan, &s);
  EXPECT_FALSE(s.glb_reused);
  EXPECT_TRUE(c.equals_exact(multiply(a, a, second)));
  EXPECT_EQ(plan.nnz_per_block, 128);
}

TEST(MultiplyPlanned, ForeignLoadBalanceTableIsRebuilt) {
  // Two 4x4 A's with the same nnz and shape but different row pointers:
  // a plan learned on the first (entries in rows 2-3) must not hand its
  // blocks' start rows to the second (entries in rows 0-1). Fingerprints
  // hash the row pointer, so only a hash collision brings such a plan
  // here; the table check must catch it anyway.
  const auto matrix = [](std::vector<index_t> row_ptr) {
    Csr<double> m;
    m.rows = 4;
    m.cols = 4;
    m.row_ptr = std::move(row_ptr);
    m.col_idx = {0, 1, 2, 3};
    m.values = {1.0, 2.0, 3.0, 4.0};
    return m;
  };
  const Csr<double> learned_on = matrix({0, 0, 0, 2, 4});
  const Csr<double> a = matrix({0, 2, 4, 4, 4});
  Csr<double> b = matrix({0, 1, 2, 3, 4});  // diagonal
  b.values = {1.0, 1.0, 1.0, 1.0};
  Config cfg;
  cfg.nnz_per_block = 2;

  SpgemmPlan plan;
  multiply_planned(learned_on, b, cfg, plan);
  ASSERT_EQ(plan.block_row_starts, (std::vector<index_t>{2, 3}));

  SpgemmStats s;
  const auto c = multiply_planned(a, b, cfg, plan, &s);
  EXPECT_FALSE(s.glb_reused);
  EXPECT_TRUE(c.equals_exact(multiply(a, b, cfg)));
  EXPECT_EQ(plan.block_row_starts, (std::vector<index_t>{0, 1}));

  // The rebuilt table is the second A's own, so it is reused from now on.
  SpgemmStats warm;
  EXPECT_TRUE(multiply_planned(a, b, cfg, plan, &warm).equals_exact(c));
  EXPECT_TRUE(warm.glb_reused);
}

TEST(MultiplyPlanned, ExternalWarmSchedulerBitIdentical) {
  const auto m = gen_powerlaw<double>(400, 400, 6.0, 1.6, 150, 71);
  Config cfg;
  cfg.scheduler_threads = 4;
  sim::BlockScheduler scheduler;
  SpgemmPlan p1, p2;
  const auto c1 = multiply_planned(m, m, cfg, p1, nullptr, &scheduler);
  const auto c2 = multiply_planned(m, m, cfg, p2, nullptr, &scheduler);
  EXPECT_TRUE(c1.equals_exact(c2));
  Config one_thread = cfg;
  one_thread.scheduler_threads = 1;
  const auto want = multiply(m, m, one_thread);
  EXPECT_TRUE(c1.equals_exact(want));

  // Two multiplications at once through the one scheduler.
  SpgemmPlan p3, p4;
  Csr<double> c3, c4;
  std::thread other(
      [&] { c3 = multiply_planned(m, m, cfg, p3, nullptr, &scheduler); });
  c4 = multiply_planned(m, m, cfg, p4, nullptr, &scheduler);
  other.join();
  EXPECT_TRUE(c3.equals_exact(want));
  EXPECT_TRUE(c4.equals_exact(want));
}

// --- Engine ---------------------------------------------------------------

// --- Completion -------------------------------------------------------------

TEST(Completion, FirstPublisherWins) {
  Completion<int> done;
  EXPECT_FALSE(done.ready());
  std::vector<int> seen(4, 0);
  std::vector<std::thread> waiters;
  for (std::size_t i = 0; i < 2; ++i)  // started before the race
    waiters.emplace_back([&done, &seen, i] { seen[i] = done.wait(); });

  std::atomic<bool> go{false};
  std::atomic<int> wins{0};
  std::vector<std::thread> publishers;
  for (int v = 1; v <= 4; ++v)
    publishers.emplace_back([&done, &go, &wins, v] {
      while (!go.load()) std::this_thread::yield();
      if (done.complete(v)) ++wins;
    });
  go.store(true);
  for (auto& t : publishers) t.join();

  for (std::size_t i = 2; i < 4; ++i)  // started after the race
    waiters.emplace_back([&done, &seen, i] { seen[i] = done.wait(); });
  for (auto& t : waiters) t.join();

  EXPECT_EQ(wins.load(), 1);
  ASSERT_TRUE(done.ready());
  const int value = done.wait();
  EXPECT_GE(value, 1);
  EXPECT_LE(value, 4);
  for (const int v : seen) EXPECT_EQ(v, value);
  // Later publications change nothing.
  EXPECT_FALSE(done.complete(5));
  EXPECT_EQ(done.wait(), value);
}

TEST(Engine, MatchesPlainMultiply) {
  const auto a = gen_powerlaw<double>(400, 400, 6.0, 1.6, 150, 11);
  const auto b = gen_uniform_random<double>(400, 400, 5.0, 2.0, 12);
  Engine<double> engine;
  auto handle = engine.submit(a, b);
  EXPECT_TRUE(handle.result().c.equals_exact(multiply(a, b)));
}

TEST(Engine, WarmPlanSkipsSetupAndEliminatesRestarts) {
  const auto a = gen_uniform_random<double>(500, 500, 8.0, 2.0, 21);
  const Config cfg = tight_pool_config();
  Engine<double> engine;

  auto h1 = engine.submit(a, a, cfg);
  auto& cold = h1.result();
  EXPECT_FALSE(cold.plan_hit);
  EXPECT_FALSE(cold.stats.glb_reused);
  EXPECT_GT(cold.stats.restarts, 0);

  auto h2 = engine.submit(a, a, cfg);
  auto& warm = h2.result();
  EXPECT_TRUE(warm.plan_hit);
  EXPECT_TRUE(warm.stats.glb_reused);
  EXPECT_EQ(warm.stats.restarts, 0);
  EXPECT_GT(warm.pool_reused_bytes, 0u);  // pool recycled across jobs
  EXPECT_TRUE(cold.c.equals_exact(warm.c));

  EXPECT_EQ(engine.plan_counters().hits, 1u);
  EXPECT_EQ(engine.plan_counters().misses, 1u);
  EXPECT_EQ(engine.arena_counters().reuse_hits, 1u);
}

TEST(Engine, RecyclesPoolRegionsAcrossJobs) {
  // A block-dense job, a small one, then the block-dense job again: the
  // third draws every region it needs from the arena, so the engine allocates
  // no fresh pool memory for it. With each job's first allocation denied,
  // every job restarts, and a restart that adds a region to a recycled
  // lease keeps the bits too.
  const auto dense = gen_block_dense<double>(2000, 2000, 16, 4, 72);
  const auto small = gen_uniform_random<double>(300, 300, 6.0, 2.0, 73);
  for (const bool deny_first : {false, true}) {
    EngineConfig ec;
    ec.workers = 1;
    ec.arch = arch::ArchId::kNativeCpu;
    ec.native_threads = 4;
    Config cfg;
    apply_arch(cfg, ec);
    const auto want_dense = multiply(dense, dense, cfg);
    const auto want_small = multiply(small, small, cfg);

    // Each job's Config carries its own policy, alive for the job.
    fault::DenyNthPolicy deny[3] = {fault::DenyNthPolicy(0),
                                    fault::DenyNthPolicy(0),
                                    fault::DenyNthPolicy(0)};
    const auto job_cfg = [&](std::size_t i) {
      Config c;
      if (deny_first) c.alloc_policy = &deny[i];
      return c;
    };
    Engine<double> engine(ec);
    auto h1 = engine.submit(dense, dense, job_cfg(0));
    const auto& first = h1.result();
    const std::size_t fresh = engine.arena_counters().fresh_bytes;
    EXPECT_GT(fresh, 0u);
    auto h2 = engine.submit(small, small, job_cfg(1));
    const auto& second = h2.result();
    auto h3 = engine.submit(dense, dense, job_cfg(2));
    const auto& third = h3.result();
    EXPECT_EQ(engine.arena_counters().fresh_bytes, fresh)
        << "deny_first " << deny_first;
    EXPECT_GT(third.pool_reused_bytes, 0u);
    EXPECT_TRUE(first.c.equals_exact(want_dense)) << "deny_first " << deny_first;
    EXPECT_TRUE(second.c.equals_exact(want_small)) << "deny_first " << deny_first;
    EXPECT_TRUE(third.c.equals_exact(want_dense)) << "deny_first " << deny_first;
    if (deny_first) {
      EXPECT_GT(first.stats.restarts, 0);
      EXPECT_GT(third.stats.restarts, 0);
    }
    EXPECT_EQ(engine.arena_counters().outstanding, 0u);
  }
}

std::vector<Csr<double>> run_mixed_batch(unsigned workers) {
  const auto a = gen_powerlaw<double>(300, 300, 5.0, 1.5, 100, 31);
  const auto b = gen_uniform_random<double>(300, 300, 4.0, 1.0, 32);
  const auto s = gen_stencil_2d<double>(18, 18, 33);
  std::vector<std::pair<Csr<double>, Csr<double>>> pairs;
  for (int rep = 0; rep < 3; ++rep) {
    pairs.emplace_back(a, a);
    pairs.emplace_back(a, b);
    pairs.emplace_back(s, s);
  }
  EngineConfig ec;
  ec.workers = workers;
  Engine<double> engine(ec);
  auto results = engine.multiply_batch(pairs, tight_pool_config());
  std::vector<Csr<double>> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::move(r.c));
  return out;
}

TEST(Engine, BatchOutputsBitIdenticalForOneVsManyWorkers) {
  // The per-job determinism contract under concurrency: the same batch must
  // produce bit-identical per-job outputs whether jobs run sequentially or
  // on many workers — even though the plan-cache/arena state each job sees
  // (and hence its restart pattern) differs between the two runs.
  const auto seq = run_mixed_batch(1);
  const auto par = run_mixed_batch(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    EXPECT_TRUE(seq[i].equals_exact(par[i])) << "job " << i;
}

TEST(Engine, PlanCacheEvictionUnderWorkerContention) {
  // More distinct patterns than cache slots, hammered by 4 workers twice
  // over: the LRU must evict without corrupting results, and the counter
  // arithmetic (hits + misses = lookups, insertions - evictions = size)
  // must stay consistent under contention.
  constexpr std::size_t kPatterns = 6;
  std::vector<std::pair<Csr<double>, Csr<double>>> pairs;
  for (std::size_t p = 0; p < kPatterns; ++p) {
    const auto m = gen_uniform_random<double>(
        160 + static_cast<index_t>(8 * p), 160 + static_cast<index_t>(8 * p),
        5.0, 1.0, 200 + p);
    pairs.emplace_back(m, m);
  }
  for (std::size_t p = 0; p < kPatterns; ++p) pairs.push_back(pairs[p]);

  EngineConfig ec;
  ec.workers = 4;
  ec.plan_cache_capacity = 3;  // < kPatterns: forces evictions
  Engine<double> engine(ec);
  const auto results = engine.multiply_batch(pairs, tight_pool_config());

  ASSERT_EQ(results.size(), 2 * kPatterns);
  for (std::size_t p = 0; p < kPatterns; ++p) {
    ASSERT_FALSE(results[p].failed());
    EXPECT_TRUE(results[p].c.equals_exact(results[p + kPatterns].c))
        << "pattern " << p;
  }
  const auto c = engine.plan_counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_EQ(c.hits + c.misses, 2 * kPatterns);
  EXPECT_EQ(c.insertions + c.refreshes, 2 * kPatterns);
  EXPECT_EQ(c.insertions - c.evictions, 3u);  // cache left full
}

TEST(Engine, MetricsAggregateAcrossWorkers) {
  const auto a = gen_uniform_random<double>(300, 300, 6.0, 2.0, 210);
  const auto b = gen_powerlaw<double>(300, 300, 5.0, 1.6, 100, 211);
  std::vector<std::pair<Csr<double>, Csr<double>>> pairs;
  for (int i = 0; i < 4; ++i) pairs.emplace_back(a, a);
  for (int i = 0; i < 4; ++i) pairs.emplace_back(b, b);

  EngineConfig ec;
  ec.workers = 4;
  Engine<double> engine(ec);
  const auto results = engine.multiply_batch(pairs);
  const trace::MetricsSnapshot m = engine.metrics();

  EXPECT_EQ(m.jobs, pairs.size());
  double sim = 0.0, per_job_stage = 0.0;
  std::uint64_t chunks = 0, esc_iterations = 0;
  for (const auto& r : results) {
    ASSERT_FALSE(r.failed());
    sim += r.stats.sim_time_s;
    chunks += r.stats.chunks_created;
    esc_iterations += r.stats.esc_iterations;
    const trace::MetricsSnapshot job = to_metrics_snapshot(r.stats);
    for (double t : job.stage_sim_time_s) per_job_stage += t;
    EXPECT_EQ(job.jobs, 1u);
  }
  EXPECT_NEAR(m.sim_time_s, sim, 1e-12);
  // The untraced engine's counter record carries what SpgemmStats keeps.
  EXPECT_EQ(m.counters.chunks_written, chunks);
  EXPECT_GT(esc_iterations, 0u);
  EXPECT_EQ(m.counters.esc_iterations, esc_iterations);
  double rolled_stage = 0.0;
  for (double t : m.stage_sim_time_s) rolled_stage += t;
  EXPECT_NEAR(rolled_stage, per_job_stage, 1e-12);
  EXPECT_NEAR(rolled_stage, sim, 1e-12);  // stages partition the sim time
  EXPECT_GT(m.counters.pool_capacity_bytes, 0u);
}

TEST(Engine, CollectJobTracesAttachesSessionPerJob) {
  const auto a = gen_uniform_random<double>(250, 250, 5.0, 1.0, 220);
  EngineConfig ec;
  ec.collect_job_traces = true;
  Engine<double> engine(ec);
  auto h1 = engine.submit(a, a);
  auto h2 = engine.submit(a, a);
  auto& r1 = h1.result();
  auto& r2 = h2.result();

  ASSERT_NE(r1.trace, nullptr);
  ASSERT_NE(r2.trace, nullptr);
  EXPECT_NE(r1.trace, r2.trace);  // one session per job, counters not shared
  EXPECT_GT(r1.trace->span_count(), 0u);
  EXPECT_EQ(r1.trace->counters_snapshot().chunks_written,
            r1.stats.chunks_created);
  EXPECT_EQ(r2.trace->counters_snapshot().chunks_written,
            r2.stats.chunks_created);
  // The engine rollup carries the counters of its own sessions.
  engine.wait_all();
  EXPECT_EQ(engine.metrics().counters.chunks_written,
            r1.stats.chunks_created + r2.stats.chunks_created);
  EXPECT_TRUE(r1.c.equals_exact(r2.c));

  // Results are unaffected by tracing.
  EXPECT_TRUE(r1.c.equals_exact(multiply(a, a)));
}

TEST(Engine, PerJobFaultInjectionKeepsResultsBitIdentical) {
  // Each job's Config carries its own injector: the injected denials force
  // restarts that must leave every job's output bit-identical to a clean
  // engine's, while surfacing on the engine-wide metrics.
  const auto a = gen_uniform_random<double>(300, 300, 6.0, 2.0, 41);
  const auto b = gen_powerlaw<double>(300, 300, 5.0, 1.5, 100, 42);
  std::vector<std::pair<Csr<double>, Csr<double>>> pairs = {
      {a, a}, {a, b}, {b, b}, {b, a}};

  Engine<double> clean_engine;
  const auto clean = clean_engine.multiply_batch(pairs);

  // Job 1 runs without a policy, so it injects nothing.
  std::vector<std::unique_ptr<AllocationPolicy>> policies;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    policies.push_back(
        i == 1 ? nullptr : std::make_unique<fault::DenyEveryKthPolicy>(5, i));
  EngineConfig ec;
  ec.workers = 2;
  Engine<double> engine(ec);
  std::vector<JobHandle<double>> handles;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    Config cfg;
    cfg.alloc_policy = policies[i].get();
    handles.push_back(engine.submit(pairs[i].first, pairs[i].second, cfg));
  }

  for (std::size_t i = 0; i < handles.size(); ++i) {
    const JobResult<double>* r = nullptr;
    ASSERT_NO_THROW(r = &handles[i].result()) << "job " << i;
    EXPECT_TRUE(r->c.equals_exact(clean[i].c)) << "job " << i;
  }
  EXPECT_EQ(engine.stats().jobs_failed, 0u);
  // Injected exhaustion is visible on the aggregated metrics.
  EXPECT_GT(engine.metrics().counters.restarts, 0u);
  EXPECT_GT(engine.metrics().counters.pool_denials, 0u);
}

TEST(Engine, FailedJobRethrowsAndEngineKeepsWorking) {
  Engine<double> engine;
  const auto a = gen_uniform_random<double>(50, 60, 3.0, 1.0, 61);
  const auto b = gen_uniform_random<double>(50, 60, 3.0, 1.0, 62);
  auto bad = engine.submit(a, b);  // 60 columns vs 50 rows
  EXPECT_THROW(static_cast<void>(bad.result()), std::invalid_argument);

  const auto good = gen_uniform_random<double>(50, 50, 3.0, 1.0, 63);
  auto ok = engine.submit(good, good);
  EXPECT_TRUE(ok.result().c.equals_exact(multiply(good, good)));
  EXPECT_EQ(engine.stats().jobs_failed, 1u);
  EXPECT_EQ(engine.stats().jobs_completed, 2u);
}

TEST(Engine, SampledPoolSizingChecksDimensionsFirst) {
  // A cold job's pool is priced from A's column ids into B's rows; the
  // dimension check must come first, and the failure lands on the job.
  const auto b = gen_uniform_random<double>(8, 8, 3.0, 1.0, 64);
  const auto a = testutil::single_entry<double>(4, 9, 8);
  Config cfg;
  cfg.pool_sizing = PoolSizing::kSampled;
  Engine<double> engine;
  const auto results = engine.multiply_batch({{a, b}}, cfg);
  ASSERT_TRUE(results[0].failed());
  EXPECT_THROW(std::rethrow_exception(results[0].error),
               std::invalid_argument);
}

TEST(Engine, BatchWithThrowingJobFailsOnlyThatJob) {
  // Regression: multiply_batch used to rethrow the first failing job's
  // exception, abandoning every later job's result (and, with handles
  // dropped mid-batch, leaving nothing to observe the remaining jobs with).
  // A bad pair must now fail only its own entry; siblings complete, the
  // worker pool drains, and the engine stays usable afterwards.
  const auto good = gen_uniform_random<double>(200, 200, 5.0, 1.0, 230);
  const auto a_bad = gen_uniform_random<double>(50, 60, 3.0, 1.0, 231);
  std::vector<std::pair<Csr<double>, Csr<double>>> pairs;
  pairs.emplace_back(good, good);
  pairs.emplace_back(a_bad, a_bad);  // 60 cols vs 50 rows: dimension mismatch
  pairs.emplace_back(good, good);

  EngineConfig ec;
  ec.workers = 2;
  Engine<double> engine(ec);
  const auto results = engine.multiply_batch(pairs);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].failed());
  ASSERT_TRUE(results[1].failed());
  EXPECT_THROW(std::rethrow_exception(results[1].error),
               std::invalid_argument);
  EXPECT_FALSE(results[2].failed());
  EXPECT_TRUE(results[0].c.equals_exact(multiply(good, good)));
  EXPECT_TRUE(results[2].c.equals_exact(results[0].c));

  EXPECT_EQ(engine.stats().jobs_failed, 1u);
  EXPECT_EQ(engine.stats().jobs_completed, 3u);
  // Not wedged: new work still runs and wait_all() returns.
  auto h = engine.submit(good, good);
  EXPECT_TRUE(h.result().c.equals_exact(results[0].c));
  engine.wait_all();
  EXPECT_EQ(engine.metrics().jobs, 3u);  // failed job excluded from metrics
}

TEST(Engine, DestructorDrainsQueuedJobsBeforeStopping) {
  // More jobs than workers, handles kept: destruction must run the whole
  // queue (the documented drain contract), not abandon queued jobs.
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.0, 82);
  constexpr int kJobs = 12;
  std::vector<JobHandle<double>> handles;
  handles.reserve(kJobs);
  {
    EngineConfig ec;
    ec.workers = 1;
    Engine<double> engine(ec);
    for (int i = 0; i < kJobs; ++i) handles.push_back(engine.submit(a, a));
    // No wait: the destructor races a mostly-full queue.
  }
  for (auto& h : handles) {
    ASSERT_TRUE(h.valid());
    EXPECT_TRUE(h.ready());  // drained, not dropped
    EXPECT_FALSE(h.result().failed());
  }
  const auto direct = multiply(a, a);
  for (auto& h : handles) EXPECT_TRUE(h.result().c.equals_exact(direct));
}

TEST(Engine, AbandonedHandlesNeitherLeakNorBlockShutdown) {
  // A caller that drops its handle before calling result() must not wedge
  // the engine or leak the job state (the worker's shared_ptr reference
  // dies with completion), and the destructor must still drain cleanly
  // when abandoned jobs are queued.
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.0, 83);
  EngineConfig ec;
  ec.workers = 2;
  {
    Engine<double> engine(ec);
    for (int i = 0; i < 6; ++i) {
      auto h = engine.submit(a, a);
      static_cast<void>(h);  // abandoned immediately, possibly still queued
    }
    auto kept = engine.submit(a, a);
    EXPECT_TRUE(kept.result().c.equals_exact(multiply(a, a)));
    engine.wait_all();
    EXPECT_EQ(engine.stats().jobs_completed, 7u);
    EXPECT_EQ(engine.stats().jobs_failed, 0u);
  }  // destructor runs with every handle but `kept` long abandoned
}

TEST(Engine, CompletionCallbackRunsBeforeResultPublication) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.0, 84);
  EngineConfig ec;
  ec.workers = 2;
  Engine<double> engine(ec);
  std::atomic<int> called{0};
  std::vector<JobHandle<double>> handles;
  for (int i = 0; i < 5; ++i) {
    handles.push_back(
        engine.submit(a, a, Config{}, [&called](JobResult<double>& r) {
          EXPECT_FALSE(r.failed());
          called.fetch_add(1, std::memory_order_relaxed);  // mo: count only,
          // ordering comes from the handle publication each wait() observes.
        }));
  }
  for (auto& h : handles) h.wait();
  // The hook fires before the handle's result is published, so once every
  // wait() returned, every callback has run exactly once.
  EXPECT_EQ(called.load(std::memory_order_relaxed), 5);  // mo: see above
  for (auto& h : handles) EXPECT_FALSE(h.result().failed());
}

TEST(Engine, CompletionCallbackFiresOnFailedJobs) {
  const auto a = gen_uniform_random<double>(60, 60, 4.0, 1.0, 85);
  const auto bad = gen_uniform_random<double>(42, 42, 4.0, 1.0, 86);
  EngineConfig ec;
  ec.workers = 1;
  Engine<double> engine(ec);
  std::atomic<bool> saw_failure{false};
  auto h = engine.submit(  // 60 columns vs 42 rows: dimension mismatch
      a, bad, Config{}, [&saw_failure](JobResult<double>& r) {
        saw_failure.store(r.failed(), std::memory_order_relaxed);  // mo:
        // flag only, read after wait() synchronises with completion.
      });
  h.wait();
  EXPECT_TRUE(saw_failure.load(std::memory_order_relaxed));  // mo: see above
  EXPECT_THROW(static_cast<void>(h.result()), std::invalid_argument);
  // The engine keeps serving after a failed job with a callback attached.
  auto ok = engine.submit(a, a);
  EXPECT_TRUE(ok.result().c.equals_exact(multiply(a, a)));
}

TEST(Engine, ThrowingCompletionHookCountsTheJobOnce) {
  // The hook's exception becomes the job's error, and the job is counted
  // once, as a failure, with nothing added to the success metrics.
  const auto a = gen_uniform_random<double>(60, 60, 4.0, 1.0, 88);
  Engine<double> engine;
  auto h = engine.submit(a, a, Config{}, [](JobResult<double>&) {
    throw std::runtime_error("hook failed");
  });
  EXPECT_THROW(static_cast<void>(h.result()), std::runtime_error);
  engine.wait_all();
  EXPECT_EQ(engine.stats().jobs_submitted, 1u);
  EXPECT_EQ(engine.stats().jobs_completed, 1u);
  EXPECT_EQ(engine.stats().jobs_failed, 1u);
  EXPECT_EQ(engine.metrics().jobs, 0u);
}

TEST(Engine, WorkersShareOneBlockPool) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts threads in /proc/self/task";
#else
  const auto process_threads = [] {
    namespace fs = std::filesystem;
    return std::distance(fs::directory_iterator("/proc/self/task"),
                         fs::directory_iterator());
  };
  // Multi-block jobs: about 7000 non-zeros of A, 256 per block.
  const auto a = gen_uniform_random<double>(1000, 1000, 7.0, 2.0, 89);
  EngineConfig ec;
  ec.workers = 4;
  ec.arch = arch::ArchId::kNativeCpu;
  ec.native_threads = 4;
  Config cfg;
  apply_arch(cfg, ec);
  const auto want = multiply(a, a, cfg);

  const auto before = process_threads();
  Engine<double> engine(ec);
  // Each hook holds its worker until all four jobs have run, so every
  // worker runs one of them.
  std::atomic<int> arrived{0};
  std::vector<JobHandle<double>> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(
        engine.submit(a, a, Config{}, [&arrived](JobResult<double>&) {
          arrived.fetch_add(1);
          while (arrived.load() < 4) std::this_thread::yield();
        }));
  engine.wait_all();
  // Four workers and at most four pool threads; a pool per worker would
  // add 16.
  EXPECT_LE(process_threads() - before, 8);
  for (auto& h : handles) EXPECT_TRUE(h.result().c.equals_exact(want));
#endif
}

TEST(Engine, QueueDepthAndInFlightIntrospection) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.0, 87);
  EngineConfig ec;
  ec.workers = 1;
  Engine<double> engine(ec);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.in_flight(), 0u);

  // Park the lone worker inside the first job's completion callback: the
  // counters then read deterministically — the gated job is in flight and
  // everything behind it is queued.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<JobHandle<double>> handles;
  handles.push_back(engine.submit(
      a, a, Config{}, [gate](JobResult<double>&) { gate.wait(); }));
  for (int i = 0; i < 7; ++i) handles.push_back(engine.submit(a, a));

  while (engine.queue_depth() != 7) std::this_thread::yield();
  EXPECT_EQ(engine.in_flight(), 8u);  // 1 executing + 7 queued

  release.set_value();
  engine.wait_all();
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.in_flight(), 0u);
  const auto direct = multiply(a, a);
  for (auto& h : handles) EXPECT_TRUE(h.result().c.equals_exact(direct));
}

}  // namespace
}  // namespace acs::runtime
