/// Runtime companions to the compile-time proofs in core/invariants.hpp and
/// tune/invariants.hpp: the 15-bit compaction boundary from both sides, a
/// differential check of compact_sorted at full counter width, and the
/// agreement between the constexpr `fits_device` the tuner prunes with and
/// what Pipeline::validate actually accepts.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/acspgemm.hpp"
#include "core/chunk.hpp"
#include "core/compaction.hpp"
#include "core/invariants.hpp"
#include "matrix/generators.hpp"
#include "tune/invariants.hpp"

namespace acs {
namespace {

namespace cd = compaction_detail;

// A codec wide enough to give every one of 32768 columns a distinct key.
KeyCodec wide_codec() { return KeyCodec::make(0, 3, 0, 65535, true, 0, 0); }

// ---------------------------------------------------------------------------
// 15-bit counter boundary (satellite of DESIGN.md §10): exactly kCounterMask
// elements pass; one more trips the runtime guard even under NDEBUG.
// ---------------------------------------------------------------------------

TEST(CompactionBoundary, ExactCounterMaskDistinctKeysPasses) {
  const auto c = wide_codec();
  const auto n = static_cast<std::size_t>(cd::kCounterMask);
  std::vector<std::uint64_t> keys(n);
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = c.encode(0, static_cast<index_t>(i));
    vals[i] = static_cast<double>(i);
  }
  sim::MetricCounters m;
  const auto out = compact_sorted<double>(keys, vals, c, m);
  // Nothing combines, so the row compacts to exactly kCounterMask entries —
  // the largest per-row count the packed word can represent.
  ASSERT_EQ(out.keys.size(), n);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].second, static_cast<index_t>(cd::kCounterMask));
  EXPECT_EQ(out.vals.front(), 0.0);
  EXPECT_EQ(out.vals.back(), static_cast<double>(n - 1));
}

TEST(CompactionBoundary, ExactCounterMaskDuplicatesPasses) {
  const auto c = wide_codec();
  const auto n = static_cast<std::size_t>(cd::kCounterMask);
  std::vector<std::uint64_t> keys(n, c.encode(1, 7));
  std::vector<double> vals(n, 0.5);
  sim::MetricCounters m;
  const auto out = compact_sorted<double>(keys, vals, c, m);
  ASSERT_EQ(out.keys.size(), 1u);
  EXPECT_EQ(out.vals[0], 0.5 * static_cast<double>(n));
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0], (std::pair<index_t, index_t>{1, 1}));
}

TEST(CompactionBoundary, OneOverCounterMaskThrows) {
  const auto c = wide_codec();
  const auto n = static_cast<std::size_t>(cd::kCounterMask) + 1;
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = c.encode(0, static_cast<index_t>(i));
  std::vector<double> vals(n, 1.0);
  sim::MetricCounters m;
  EXPECT_THROW(compact_sorted<double>(keys, vals, c, m), std::length_error);
}

// Differential check at full width: a buffer mixing runs of duplicates and
// distinct keys, sized exactly at the counter limit, must agree with a
// plain sequential reference on every output.
TEST(CompactionBoundary, DifferentialAtFullWidth) {
  const auto c = wide_codec();
  const auto n = static_cast<std::size_t>(cd::kCounterMask);
  std::vector<std::uint64_t> keys(n);
  std::vector<double> vals(n);
  // Deterministic duplicate pattern: key advances on every i not divisible
  // by 3, so ~2/3 of the keys are distinct, spread over two rows.
  index_t col = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 2) col = 0;  // second row restarts the column walk
    const auto row = static_cast<index_t>(i < n / 2 ? 0 : 2);
    keys[i] = c.encode(row, col);
    vals[i] = static_cast<double>(i % 17) - 8.0;
    if (i % 3 != 0) ++col;
  }
  sim::MetricCounters m;
  const auto out = compact_sorted<double>(keys, vals, c, m);

  // Reference: sequential left-to-right accumulation of equal-key runs.
  std::vector<std::uint64_t> ref_keys;
  std::vector<double> ref_vals;
  for (std::size_t i = 0; i < n; ++i) {
    if (ref_keys.empty() || ref_keys.back() != keys[i]) {
      ref_keys.push_back(keys[i]);
      ref_vals.push_back(vals[i]);
    } else {
      ref_vals.back() += vals[i];
    }
  }
  ASSERT_EQ(out.keys, ref_keys);
  ASSERT_EQ(out.vals, ref_vals);  // exact: same order of additions
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0].second + out.rows[1].second,
            static_cast<index_t>(ref_keys.size()));
}

// ---------------------------------------------------------------------------
// fits_device states Pipeline::validate's feasibility rule: whatever the
// constexpr filter accepts must multiply, whatever it rejects must throw.
// ---------------------------------------------------------------------------

TEST(FeasibilityMirror, FitsDeviceMatchesPipelineValidate) {
  const auto a = gen_uniform_random<double>(50, 50, 3.0, 1.0, 42);

  const auto probe = [&](Config cfg) {
    const bool fits = fits_device(cfg, sizeof(double));
    bool ran = true;
    try {
      (void)multiply(a, a, cfg);
    } catch (const std::invalid_argument&) {
      ran = false;
    } catch (const std::length_error&) {
      ran = false;  // scratchpad overflow surfaces as length_error
    }
    EXPECT_EQ(fits, ran) << "threads=" << cfg.threads
                         << " npb=" << cfg.nnz_per_block
                         << " ept=" << cfg.elements_per_thread
                         << " retain=" << cfg.retain_per_thread;
  };

  Config cfg;
  probe(cfg);  // default: feasible

  cfg = {};
  cfg.nnz_per_block = 1024;  // the tuple tune/invariants.hpp proves infeasible
  probe(cfg);

  cfg = {};
  cfg.threads = 4096;  // temp_capacity 32768: one past the 15-bit counters
  probe(cfg);

  cfg = {};
  cfg.threads = 16;
  cfg.elements_per_thread = 4;
  cfg.nnz_per_block = 8192;  // WD offsets alone overflow the scratchpad
  probe(cfg);

  cfg = {};
  cfg.retain_per_thread = 8;  // retain == elements_per_thread
  probe(cfg);

  cfg = {};
  cfg.threads = 64;
  cfg.elements_per_thread = 4;
  cfg.retain_per_thread = 2;
  probe(cfg);  // small but feasible
}

// The compile-time chunk accounting agrees with a chunk built at run time.
TEST(ChunkAccounting, RuntimeMatchesConstants) {
  const std::vector<index_t> rows = {0, 1, 2};
  const std::vector<index_t> offsets = {0, 1, 2, 4};
  const std::vector<index_t> cols = {3, 1, 0, 2};
  const std::vector<double> vals = {1.0, 2.0, 3.0, 4.0};
  Chunk<double> c;
  c.rows = rows;
  c.row_offsets = offsets;
  c.cols = cols;
  c.vals = vals;
  EXPECT_EQ(c.byte_size(), kChunkHeaderBytes + 3 * sizeof(index_t) +
                               4 * (sizeof(index_t) + sizeof(double)));
  Chunk<double> p;
  p.is_long_row = true;
  p.long_len = 12345;
  EXPECT_EQ(p.byte_size(), kPointerChunkBytes);
}

}  // namespace
}  // namespace acs
