#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace acs::sim {
namespace {

TEST(Scheduler, RunsEveryBlockExactlyOnce) {
  BlockScheduler sched;
  std::vector<int> hits(100, 0);
  sched.for_each_block(100, 1, [&](std::size_t b) { hits[b]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Scheduler, RunsEveryBlockWithThreadPool) {
  BlockScheduler sched;
  std::vector<std::atomic<int>> hits(1000);
  sched.for_each_block(1000, 4, [&](std::size_t b) { hits[b]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ZeroBlocksIsNoop) {
  BlockScheduler sched;
  bool called = false;
  sched.for_each_block(0, 2, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Scheduler, PropagatesExceptions) {
  BlockScheduler sched;
  EXPECT_THROW(sched.for_each_block(10, 2,
                                    [&](std::size_t b) {
                                      if (b == 5) throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
}

TEST(Scheduler, PerBlockSlotsGiveDeterministicResults) {
  // The pattern every simulated kernel uses: each block writes only its own
  // slot, so results are independent of interleaving.
  auto run = [](unsigned threads) {
    BlockScheduler sched;
    std::vector<long> out(500);
    sched.for_each_block(500, threads, [&](std::size_t b) {
      out[b] = static_cast<long>(b * b + 1);
    });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

/// Regression: workers used to read `num_blocks` unlocked inside the
/// ticket loop, racing the next dispatch's setup under the pool mutex.
/// Alternating dispatch sizes through one persistent pool must run every
/// block of every generation exactly once (TSan covers the load/store).
TEST(Scheduler, AlternatingDispatchSizesReuseThePoolSafely) {
  BlockScheduler sched;
  const std::size_t sizes[] = {1000, 7, 513, 1, 64, 999};
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = sizes[round % 6];
    std::vector<std::atomic<int>> hits(n);
    sched.for_each_block(n, 4, [&](std::size_t b) { hits[b]++; });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
  }
}

TEST(Scheduler, ZeroThreadsPicksHardwareConcurrency) {
  BlockScheduler sched;
  std::mutex m;
  std::set<std::thread::id> seen;
  std::vector<std::atomic<int>> hits(256);
  sched.for_each_block(hits.size(), 0, [&](std::size_t b) {
    hits[b]++;
    std::lock_guard<std::mutex> lock(m);
    seen.insert(std::this_thread::get_id());
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), std::max(1u, std::thread::hardware_concurrency()));
}

/// The Engine's workers dispatch into one scheduler at once. Every block of
/// every dispatch runs exactly once, a dispatch never runs on more threads
/// than it asked for, the pool never grows past the widest request, and a
/// one-thread dispatch stays on its caller.
TEST(Scheduler, ConcurrentDispatchesShareOnePool) {
  constexpr unsigned kCallers = 4;
  constexpr unsigned kRounds = 20;
  const std::size_t sizes[] = {1000, 7, 513, 1, 64, 999, 2};
  const unsigned counts[] = {1, 2, 4};
  BlockScheduler sched;
  std::mutex m;
  std::set<std::thread::id> pool_threads;
  std::atomic<int> failures{0};

  auto caller = [&](unsigned id) {
    const std::thread::id self = std::this_thread::get_id();
    for (unsigned round = 0; round < kRounds; ++round) {
      const std::size_t n = sizes[(round + id) % 7];
      const unsigned threads = counts[(round + id) % 3];
      std::vector<std::atomic<int>> hits(n);
      std::mutex dm;
      std::set<std::thread::id> ran_on;
      sched.for_each_block(n, threads, [&](std::size_t b) {
        hits[b]++;
        std::lock_guard<std::mutex> lock(dm);
        ran_on.insert(std::this_thread::get_id());
      });
      for (auto& h : hits)
        if (h.load() != 1) ++failures;
      if (n > 0 && ran_on.size() > threads) ++failures;
      if (threads == 1 && ran_on != std::set<std::thread::id>{self})
        ++failures;
      std::lock_guard<std::mutex> lock(m);
      for (const std::thread::id t : ran_on)
        if (t != self) pool_threads.insert(t);
    }
  };
  std::vector<std::thread> callers;
  for (unsigned i = 0; i < kCallers; ++i) callers.emplace_back(caller, i);
  for (auto& t : callers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(pool_threads.size(), 1u);
  EXPECT_LE(pool_threads.size(), 4u);
}

}  // namespace
}  // namespace acs::sim
