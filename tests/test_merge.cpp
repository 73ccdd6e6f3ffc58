/// Direct unit tests of the merge block (run_merge_block): the three merge
/// kinds, window splitting, pointer-chunk materialization, restart/resume.

#include "core/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "matrix/coo.hpp"

namespace acs {
namespace {

template <class T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Chunks built by a test, with the pool that stores them.
struct Chunks {
  ChunkPool store{1 << 20};
  std::vector<Chunk<double>> list;

  /// Add a chunk holding one row's (col, val) entries.
  void row(index_t row, const std::vector<index_t>& cols,
           const std::vector<double>& vals, std::uint32_t block,
           std::uint32_t counter) {
    const ChunkSlot<double> slot = store.place<double>(1, cols.size());
    slot.rows[0] = row;
    slot.row_offsets[0] = 0;
    slot.row_offsets[1] = static_cast<index_t>(cols.size());
    std::copy(cols.begin(), cols.end(), slot.cols.begin());
    std::copy(vals.begin(), vals.end(), slot.vals.begin());
    list.push_back(slot.chunk({block, counter}));
  }

  /// The merge's input as the pipeline builds it: chunks in ChunkOrder,
  /// then every row's segments indexed.
  SegmentTable table(index_t rows) {
    std::sort(list.begin(), list.end(),
              [](const Chunk<double>& x, const Chunk<double>& y) {
                return x.order < y.order;
              });
    SegmentTable t;
    t.build(std::span<const Chunk<double>>(list), 0, rows);
    return t;
  }
};

/// Output rows every test's chunks fall in.
constexpr index_t kRows = 100;

/// Merge `rows` as one batch, each row's segments in chunk order.
MergeOutcome<double> merge(Chunks& chunks, const std::vector<index_t>& rows,
                           const Csr<double>& b, const Config& cfg,
                           ChunkPool& pool, MergeKind kind,
                           std::size_t windows_done = 0) {
  const SegmentTable table = chunks.table(kRows);
  MergeBatch batch;
  batch.rows = rows;
  return run_merge_block<double>(batch, table,
                                 std::span<const Chunk<double>>(chunks.list),
                                 b, cfg, pool, kind, windows_done, 99);
}

Csr<double> empty_b() {
  Csr<double> b;
  b.rows = b.cols = 100;
  b.row_ptr.assign(101, 0);
  return b;
}

TEST(Merge, TwoChunksCombineOverlappingColumns) {
  Chunks chunks;
  chunks.row(3, {1, 5, 9}, {1.0, 2.0, 3.0}, 0, 0);
  chunks.row(3, {5, 7}, {10.0, 20.0}, 1, 0);
  ChunkPool pool(1 << 20);
  Config cfg;
  const auto out = merge(chunks, {3}, empty_b(), cfg, pool, MergeKind::Multi);
  ASSERT_EQ(out.chunks.size(), 1u);
  const auto& m = out.chunks[0];
  EXPECT_EQ(vec(m.rows), (std::vector<index_t>{3}));
  EXPECT_EQ(vec(m.cols), (std::vector<index_t>{1, 5, 7, 9}));
  EXPECT_EQ(vec(m.vals), (std::vector<double>{1.0, 12.0, 20.0, 3.0}));
}

TEST(Merge, CombinesInChunkOrderForDeterminism) {
  // Equal columns must sum in ChunkOrder: (a + b) with a from the earlier
  // chunk — checked with values whose float sum is order-sensitive.
  Chunks chunks;
  chunks.row(0, {4}, {1e16}, 2, 1);
  chunks.row(0, {4}, {1.0}, 0, 0);   // earliest order
  chunks.row(0, {4}, {-1e16}, 2, 5);
  // Segments sorted by order: 1.0, 1e16, -1e16 -> ((1.0 + 1e16) - 1e16) = 0.
  ChunkPool pool(1 << 20);
  Config cfg;
  const auto out = merge(chunks, {0}, empty_b(), cfg, pool, MergeKind::Search);
  ASSERT_EQ(out.chunks.size(), 1u);
  EXPECT_EQ(out.chunks[0].vals[0], (1.0 + 1e16) - 1e16);
}

TEST(Merge, MultiBatchSeveralRows) {
  Chunks chunks;
  chunks.row(1, {0, 2}, {1.0, 1.0}, 0, 0);
  chunks.row(1, {2, 4}, {1.0, 1.0}, 1, 0);
  chunks.row(6, {3}, {5.0}, 0, 1);
  chunks.row(6, {3}, {7.0}, 1, 1);
  ChunkPool pool(1 << 20);
  Config cfg;
  const auto out =
      merge(chunks, {1, 6}, empty_b(), cfg, pool, MergeKind::Multi);
  ASSERT_EQ(out.chunks.size(), 1u);
  const auto& m = out.chunks[0];
  EXPECT_EQ(vec(m.rows), (std::vector<index_t>{1, 6}));
  EXPECT_EQ(vec(m.row_offsets), (std::vector<index_t>{0, 3, 4}));
  EXPECT_EQ(vec(m.cols), (std::vector<index_t>{0, 2, 4, 3}));
  EXPECT_EQ(vec(m.vals), (std::vector<double>{1.0, 2.0, 1.0, 12.0}));
}

TEST(Merge, WindowsSplitLargeRows) {
  // A row larger than the block capacity must produce multiple window
  // chunks with ascending, non-overlapping column ranges.
  Config cfg;
  cfg.threads = 8;
  cfg.elements_per_thread = 4;  // capacity 32
  cfg.retain_per_thread = 2;
  Chunks chunks;
  std::vector<index_t> cols_a, cols_b;
  std::vector<double> vals_a, vals_b;
  for (index_t c = 0; c < 50; ++c) {
    cols_a.push_back(2 * c);
    vals_a.push_back(1.0);
    cols_b.push_back(2 * c + 1);
    vals_b.push_back(2.0);
  }
  chunks.row(0, cols_a, vals_a, 0, 0);
  chunks.row(0, cols_b, vals_b, 1, 0);
  ChunkPool pool(1 << 20);
  const auto out = merge(chunks, {0}, empty_b(), cfg, pool, MergeKind::Path);
  ASSERT_GT(out.chunks.size(), 1u);
  index_t total = 0;
  index_t prev_last = -1;
  for (const auto& w : out.chunks) {
    EXPECT_GT(w.cols.front(), prev_last);
    prev_last = w.cols.back();
    total += w.entry_count();
  }
  EXPECT_EQ(total, 100);
}

TEST(Merge, PointerChunksMaterializeFromB) {
  Coo<double> bcoo;
  bcoo.rows = bcoo.cols = 100;
  for (index_t c = 10; c < 20; ++c) bcoo.push(7, c, 0.5 * (c - 9));
  const auto b = bcoo.to_csr();

  Chunks chunks;
  const ChunkSlot<double> slot = chunks.store.place<double>(1, 0);
  slot.rows[0] = 2;
  slot.row_offsets[0] = 0;
  slot.row_offsets[1] = 10;
  Chunk<double> pointer = slot.chunk({0, 0});
  pointer.is_long_row = true;
  pointer.b_row = 7;
  pointer.factor = 2.0;
  pointer.long_len = 10;
  chunks.list.push_back(pointer);
  chunks.row(2, {12, 50}, {100.0, 1.0}, 1, 0);

  ChunkPool pool(1 << 20);
  Config cfg;
  const auto out = merge(chunks, {2}, b, cfg, pool, MergeKind::Search);
  ASSERT_EQ(out.chunks.size(), 1u);
  const auto& m = out.chunks[0];
  ASSERT_EQ(m.entry_count(), 11);  // cols 10..19 plus 50
  // col 12 combines 2.0*1.5 (scaled B) + 100.0 (regular chunk).
  for (std::size_t i = 0; i < m.cols.size(); ++i) {
    if (m.cols[i] == 12) {
      EXPECT_EQ(m.vals[i], 2.0 * 1.5 + 100.0);
    }
  }
}

TEST(Merge, DegenerateOversizedGroupChargesFlops) {
  // Regression (ISSUE 3 satellite): a key group with more duplicates of one
  // (row, col) than kCounterMask allows takes the sequential-accumulation
  // branch, which previously charged no flops at all — wn values summed with
  // wn-1 additions must show up in the metrics like the compaction path's
  // combines do.
  constexpr std::size_t kDup = 33000;  // > compaction_detail::kCounterMask
  Chunks chunks;
  chunks.row(4, std::vector<index_t>(kDup, 17),
             std::vector<double>(kDup, 0.25), 0, 0);
  ChunkPool pool(1 << 20);
  Config cfg;
  const auto out = merge(chunks, {4}, empty_b(), cfg, pool, MergeKind::Multi);
  ASSERT_EQ(out.chunks.size(), 1u);
  EXPECT_EQ(vec(out.chunks[0].cols), (std::vector<index_t>{17}));
  EXPECT_EQ(vec(out.chunks[0].vals), (std::vector<double>{kDup * 0.25}));
  EXPECT_GE(out.metrics.flops, kDup - 1);
}

TEST(Merge, RestartResumesAtWindow) {
  Config cfg;
  cfg.threads = 8;
  cfg.elements_per_thread = 4;  // capacity 32: several windows
  cfg.retain_per_thread = 2;
  Chunks chunks;
  std::vector<index_t> cols1, cols2;
  std::vector<double> vals1, vals2;
  for (index_t c = 0; c < 60; ++c) {
    cols1.push_back(c);
    vals1.push_back(1.0);
    cols2.push_back(c);
    vals2.push_back(2.0);
  }
  chunks.row(0, cols1, vals1, 0, 0);
  chunks.row(0, cols2, vals2, 1, 0);

  ChunkPool tiny(700);  // fits roughly one window chunk
  std::vector<Chunk<double>> produced;
  std::size_t windows_done = 0;
  int rounds = 0;
  for (;;) {
    const auto out = merge(chunks, {0}, empty_b(), cfg, tiny,
                           MergeKind::Search, windows_done);
    for (const auto& c : out.chunks) produced.push_back(c);
    windows_done = out.windows_done;
    if (!out.needs_restart) break;
    tiny.grow(700);
    ASSERT_LT(++rounds, 50);
  }
  EXPECT_GT(rounds, 0);
  index_t total = 0;
  for (const auto& w : produced) total += w.entry_count();
  EXPECT_EQ(total, 60);  // every column combined exactly once
  for (const auto& w : produced)
    for (const auto& v : w.vals) EXPECT_EQ(v, 3.0);
}

}  // namespace
}  // namespace acs
