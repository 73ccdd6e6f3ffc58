/// Direct unit tests of one ESC block's execution (run_esc_block), below
/// the pipeline level: chunk layout, carrying, long-row pointer chunks,
/// restart protocol.

#include "core/esc_block.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/acspgemm.hpp"
#include "fault/policies.hpp"
#include "matrix/coo.hpp"
#include "matrix/generators.hpp"

namespace acs {
namespace {

Config tiny_config() {
  Config cfg;
  cfg.threads = 16;
  cfg.nnz_per_block = 16;
  cfg.elements_per_thread = 4;  // capacity 64
  cfg.retain_per_thread = 2;    // retain up to 32
  return cfg;
}

std::vector<index_t> glb(const Csr<double>& a, const Config& cfg) {
  const auto blocks =
      static_cast<std::size_t>(divup<offset_t>(a.nnz(), cfg.nnz_per_block));
  std::vector<index_t> starts(blocks, 0);
  for (index_t row = 0; row < a.rows; ++row) {
    const offset_t lo = a.row_ptr[usize(row)], hi = a.row_ptr[usize(row) + 1];
    if (lo == hi) continue;
    for (offset_t blk = divup<offset_t>(lo, cfg.nnz_per_block);
         blk <= (hi - 1) / cfg.nnz_per_block; ++blk)
      starts[static_cast<std::size_t>(blk)] = row;
  }
  return starts;
}

TEST(EscBlock, SingleBlockProducesSortedCompleteChunks) {
  const auto cfg = tiny_config();
  const auto a = gen_uniform_random<double>(8, 8, 2.0, 0.0, 400);
  const auto starts = glb(a, cfg);
  ChunkPool pool(1 << 20);
  BlockState<double> state;
  const auto res = run_esc_block<double>(a, a, starts, 0, cfg, pool, state);
  EXPECT_TRUE(state.finished);
  EXPECT_FALSE(res.needs_restart);
  EXPECT_GE(res.iterations, 1);
  ASSERT_FALSE(res.chunks.empty());
  for (const auto& chunk : res.chunks) {
    ASSERT_EQ(chunk.row_offsets.size(), chunk.rows.size() + 1);
    for (std::size_t r = 0; r + 1 < chunk.rows.size(); ++r)
      EXPECT_LT(chunk.rows[r], chunk.rows[r + 1]);
    for (std::size_t r = 0; r < chunk.rows.size(); ++r)
      for (index_t k = chunk.row_offsets[r] + 1; k < chunk.row_offsets[r + 1];
           ++k)
        EXPECT_LT(chunk.cols[static_cast<std::size_t>(k - 1)],
                  chunk.cols[static_cast<std::size_t>(k)]);
  }
}

TEST(EscBlock, ChunkCountersAreSequential) {
  const auto cfg = tiny_config();
  const auto a = gen_uniform_random<double>(16, 16, 4.0, 1.0, 401);
  ChunkPool pool(1 << 20);
  BlockState<double> state;
  const auto res =
      run_esc_block<double>(a, a, glb(a, cfg), 0, cfg, pool, state);
  for (std::size_t i = 0; i < res.chunks.size(); ++i) {
    EXPECT_EQ(res.chunks[i].order.block, 0u);
    EXPECT_EQ(res.chunks[i].order.counter, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(state.chunk_counter, res.chunks.size());
}

TEST(EscBlock, LongRowsBecomePointerChunks) {
  Config cfg = tiny_config();
  cfg.long_row_threshold = 8;
  // B row 0 has 12 entries (>= threshold); A references it twice.
  Coo<double> acoo, bcoo;
  acoo.rows = acoo.cols = 16;
  acoo.push(0, 0, 2.0);
  acoo.push(1, 0, 3.0);
  acoo.push(1, 2, 1.0);
  bcoo.rows = bcoo.cols = 16;
  for (index_t c = 0; c < 12; ++c) bcoo.push(0, c, 1.0);
  bcoo.push(2, 5, 4.0);
  const auto a = acoo.to_csr();
  const auto b = bcoo.to_csr();

  ChunkPool pool(1 << 20);
  BlockState<double> state;
  const auto res = run_esc_block<double>(a, b, glb(a, cfg), 0, cfg, pool, state);
  int pointer_chunks = 0;
  for (const auto& chunk : res.chunks) {
    if (chunk.is_long_row) {
      ++pointer_chunks;
      EXPECT_EQ(chunk.b_row, 0);
      EXPECT_EQ(chunk.long_len, 12);
      EXPECT_EQ(chunk.byte_size(), 48u);
    }
  }
  EXPECT_EQ(pointer_chunks, 2);
  EXPECT_EQ(state.long_rows_done, 2);
}

TEST(EscBlock, RestartResumesWithoutDuplicatingChunks) {
  const auto cfg = tiny_config();
  const auto a = gen_uniform_random<double>(32, 32, 6.0, 1.0, 402);
  const auto starts = glb(a, cfg);

  // Reference run with an ample pool.
  ChunkPool big(1 << 20);
  BlockState<double> ref_state;
  const auto ref = run_esc_block<double>(a, a, starts, 0, cfg, big, ref_state);

  // Constrained run: pool that fits only part of the output, grown until
  // the block completes — the pipeline's restart loop in miniature.
  ChunkPool small(256);
  BlockState<double> state;
  std::vector<Chunk<double>> chunks;
  int restarts = 0;
  for (;;) {
    auto res = run_esc_block<double>(a, a, starts, 0, cfg, small, state);
    for (auto& c : res.chunks) chunks.push_back(std::move(c));
    if (!res.needs_restart) break;
    ++restarts;
    small.grow(256);
    ASSERT_LT(restarts, 200);
  }
  EXPECT_GT(restarts, 0);

  // Same total entries per row as the unconstrained run.
  std::vector<index_t> ref_counts(32, 0), got_counts(32, 0);
  for (const auto& c : ref.chunks)
    for (std::size_t r = 0; r < c.rows.size(); ++r)
      ref_counts[static_cast<std::size_t>(c.rows[r])] +=
          c.row_offsets[r + 1] - c.row_offsets[r];
  for (const auto& c : chunks)
    for (std::size_t r = 0; r < c.rows.size(); ++r)
      got_counts[static_cast<std::size_t>(c.rows[r])] +=
          c.row_offsets[r + 1] - c.row_offsets[r];
  EXPECT_EQ(ref_counts, got_counts);
}

TEST(EscBlock, InjectedDenialAtEveryAllocationPreservesOutput) {
  // Pins the resume-point invariant (DESIGN.md §8): a failed chunk write
  // records its iteration's start and carry, and the relaunch replays from
  // there. Denying each allocation attempt in turn forces a restart at every
  // chunk boundary, and the replay must reproduce the clean run's chunks
  // exactly — same row cuts, same partial sums, bit for bit.
  Config cfg = tiny_config();
  cfg.elements_per_thread = 2;  // capacity 32: many local iterations
  cfg.retain_per_thread = 1;
  // Dense rows so block 0's 16 sources expand across several iterations,
  // giving the clean run a handful of chunk allocations to deny in turn.
  const auto a = gen_uniform_random<double>(64, 64, 12.0, 2.0, 404);
  const auto starts = glb(a, cfg);

  ChunkPool clean_pool(1 << 20);
  fault::CountingPolicy counting;
  clean_pool.set_policy(&counting);
  BlockState<double> clean_state;
  const auto ref =
      run_esc_block<double>(a, a, starts, 0, cfg, clean_pool, clean_state);
  ASSERT_TRUE(clean_state.finished);
  ASSERT_FALSE(ref.needs_restart);
  const std::uint64_t points = counting.attempts();
  ASSERT_GE(points, 3u);  // several commit boundaries to inject between

  const auto layout_of = [](const std::vector<Chunk<double>>& chunks) {
    std::vector<std::tuple<std::vector<index_t>, std::vector<index_t>,
                           std::vector<index_t>, std::vector<double>>>
        layout;
    for (const auto& c : chunks)
      layout.emplace_back(
          std::vector<index_t>(c.rows.begin(), c.rows.end()),
          std::vector<index_t>(c.row_offsets.begin(), c.row_offsets.end()),
          std::vector<index_t>(c.cols.begin(), c.cols.end()),
          std::vector<double>(c.vals.begin(), c.vals.end()));
    return layout;
  };
  const auto ref_layout = layout_of(ref.chunks);

  for (std::uint64_t i = 0; i < points; ++i) {
    ChunkPool pool(1 << 20);  // ample: the only denial is the injected one
    fault::DenyNthPolicy deny(i);
    pool.set_policy(&deny);
    BlockState<double> state;
    std::vector<Chunk<double>> chunks;
    int restarts = 0;
    for (;;) {
      auto res = run_esc_block<double>(a, a, starts, 0, cfg, pool, state);
      for (auto& c : res.chunks) chunks.push_back(std::move(c));
      if (!res.needs_restart) break;
      ++restarts;
      ASSERT_LT(restarts, 10) << "denied attempt " << i;
    }
    EXPECT_EQ(restarts, 1) << "denied attempt " << i;
    EXPECT_TRUE(state.finished) << "denied attempt " << i;
    EXPECT_EQ(layout_of(chunks), ref_layout) << "denied attempt " << i;
  }
}

TEST(EscBlock, EmptyBlockFinishesImmediately) {
  const auto cfg = tiny_config();
  Csr<double> a;
  a.rows = a.cols = 4;
  a.row_ptr.assign(5, 0);
  ChunkPool pool(1 << 20);
  BlockState<double> state;
  const auto res = run_esc_block<double>(a, a, {}, 0, cfg, pool, state);
  EXPECT_TRUE(state.finished);
  EXPECT_TRUE(res.chunks.empty());
}

TEST(EscBlock, RetainZeroWritesEveryIteration) {
  Config cfg = tiny_config();
  cfg.retain_per_thread = 0;
  const auto a = gen_uniform_random<double>(32, 32, 6.0, 1.0, 403);
  ChunkPool pool(1 << 20);
  BlockState<double> state;
  const auto res =
      run_esc_block<double>(a, a, glb(a, cfg), 0, cfg, pool, state);
  // Without retention every iteration flushes: at least one chunk per
  // iteration.
  EXPECT_GE(static_cast<int>(res.chunks.size()), res.iterations);
}

}  // namespace
}  // namespace acs
