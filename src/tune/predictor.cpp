#include "tune/predictor.hpp"

#include <algorithm>
#include <cmath>

#include "arch/arch.hpp"
#include "estimate/estimator.hpp"
#include "sim/block_primitives.hpp"

namespace acs::tune {
namespace {

constexpr double kIdx = static_cast<double>(sizeof(index_t));

double clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

/// Fraction of A's rows whose estimated output length exceeds `limit`,
/// read off the row-length quantiles (piecewise-constant survival curve).
double row_fraction_above(const RowLengthProfile& p, double limit,
                          double scale) {
  if (static_cast<double>(p.max) * scale <= limit) return 0.0;
  if (static_cast<double>(p.p99) * scale > limit) {
    if (static_cast<double>(p.p90) * scale > limit) {
      if (static_cast<double>(p.p50) * scale > limit) return 0.5;
      return 0.1;
    }
    return 0.01;
  }
  return 0.001;
}

/// Device makespan of a uniform kernel of `blocks` blocks sharing the
/// aggregate counters `total` (the treatment the pipeline gives its utility
/// kernels), in closed form — the currency of `total_s`, which the tuner
/// ranks by and admission prices with.
double kernel_makespan_s(const sim::MetricCounters& total, double blocks,
                         const sim::DeviceConfig& dev) {
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(blocks)));
  return sim::uniform_kernel_time_s(total, n, dev);
}

}  // namespace

CostBreakdown predict_cost(const TuneFeatures& f, const Config& cfg,
                           std::size_t value_bytes) {
  CostBreakdown out;
  const sim::DeviceConfig& dev = arch::arch_info(cfg.arch).device;
  const double vb = static_cast<double>(value_bytes);
  const double nnz_a = std::max(1.0, static_cast<double>(f.nnz_a));
  const double rows_a = std::max(1.0, static_cast<double>(f.rows_a));
  const double cols_b = std::max(1.0, static_cast<double>(f.cols_b));
  const double avg_b = f.b_rows.avg;
  const double npb = static_cast<double>(cfg.nnz_per_block);
  const double threads = static_cast<double>(cfg.threads);
  const double cap = static_cast<double>(cfg.temp_capacity());
  const double retain_cap = static_cast<double>(cfg.retain_capacity());

  const double products = f.est_products;

  // Long-row diversion under this candidate's threshold (Section 3.4):
  // products in B rows at least `t` long never enter the ESC sort.
  const index_t t = cfg.effective_long_row_threshold();
  double long_products = 0.0;
  if (cfg.long_row_handling) {
    long_products = std::min(products, f.products_in_rows_at_least(t));
    out.long_entries = f.entries_in_rows_at_least(t);
  }
  const double esc_products = std::max(0.0, products - long_products);
  out.esc_products = esc_products;

  // Output-size estimate: the paper's uniform-row collision model, capped
  // by the (possibly measured) product count.
  const double avg_a = nnz_a / rows_a;
  out.est_nnz_c = std::min(
      products, estimate::uniform_output_nnz(rows_a, avg_a, avg_b, cols_b));
  const double compaction = out.est_nnz_c / std::max(1.0, products);

  // --- GLB (Algorithm 1): one pass over A's row pointer. ------------------
  out.blocks = std::ceil(nnz_a / npb);
  {
    sim::MetricCounters m;
    m.global_bytes_coalesced =
        static_cast<std::uint64_t>((rows_a + out.blocks) * kIdx);
    m.scan_elements = static_cast<std::uint64_t>(rows_a);
    out.glb_s = kernel_makespan_s(m, std::ceil(rows_a / threads), dev);
  }

  // --- ESC: iterations, sort work, chunk writes. --------------------------
  // A carried row averages half the retain budget, shrinking the products
  // consumed per iteration; every block runs at least one iteration.
  const double consume = std::max(1.0, cap - retain_cap * 0.5);
  const double products_pb = esc_products / out.blocks;
  const double iters_pb = std::max(1.0, std::ceil(products_pb / consume));
  out.iterations = iters_pb * out.blocks;

  // Sort key width: local-row ids are entry indices (≤ nnz_per_block), but
  // dynamic bit reduction narrows them to the entries one iteration spans;
  // column bits span B's full width for structure-agnostic inputs.
  const double entries_per_iter = consume / std::max(1.0, avg_b);
  const int lrow_bits = sim::bits_for(static_cast<std::uint64_t>(std::max(
      0.0, (cfg.dynamic_bits ? std::min(npb, entries_per_iter) : npb) - 1)));
  const int col_bits =
      sim::bits_for(static_cast<std::uint64_t>(std::max(0.0, cols_b - 1)));
  const int passes = sim::radix_passes(lrow_bits + col_bits);

  // Chunks: roughly one write per iteration, plus the pointer chunks.
  const double esc_chunk_entries = esc_products * compaction;
  out.chunks = out.iterations + out.long_entries;
  const double rows_pb = std::max(1.0, rows_a * npb / nnz_a);
  {
    sim::MetricCounters m;
    const double sorted =
        esc_products + out.iterations * retain_cap * 0.5;  // carried resort
    m.sort_pass_elements = static_cast<std::uint64_t>(
        sorted * static_cast<double>(std::max(passes, 1)));
    m.scan_elements = static_cast<std::uint64_t>(
        sorted + out.iterations * threads + nnz_a);
    m.flops = static_cast<std::uint64_t>(2.0 * esc_products);
    m.global_bytes_coalesced = static_cast<std::uint64_t>(
        nnz_a * (kIdx + vb)                       // fetch A
        + (rows_a + out.blocks) * kIdx            // row-pointer windows
        + nnz_a * kIdx                            // B row-length lookups
        + esc_products * (kIdx + vb)              // expand loads from B
        + esc_chunk_entries * (kIdx + vb)         // chunk payload writes
        + out.chunks * 32.0 + out.long_entries * 48.0);
    m.global_bytes_scattered = static_cast<std::uint64_t>(
        nnz_a * kIdx        // row-length pointer lookups
        + nnz_a * 32.0);    // B-row segment starts
    m.scratch_ops = static_cast<std::uint64_t>(2.0 * esc_chunk_entries);
    m.atomic_ops = static_cast<std::uint64_t>(out.chunks * 3.0 + rows_pb +
                                              out.long_entries * 4.0);
    out.esc_s = kernel_makespan_s(m, out.blocks, dev);
  }

  // --- Merge: boundary rows + oversized rows + long-row rows. -------------
  const double avg_c = out.est_nnz_c / rows_a;
  // Every block boundary cuts one row into two chunks (Multi Merge unless
  // the row is large); rows whose compacted length overflows the retain
  // budget flush mid-block and split into ~length/cap chunks.
  const double boundary_rows = std::max(0.0, out.blocks - 1.0);
  const double big_frac =
      row_fraction_above(f.a_rows, std::max(retain_cap, 1.0),
                         avg_b * compaction);
  const double big_rows = rows_a * big_frac;
  const double big_len = std::max(
      avg_c, static_cast<double>(f.a_rows.p99) * avg_b * compaction);
  const double big_chunks = std::max(2.0, big_len / cap);
  // Long-row pointer chunks merge only when their row has other segments
  // (an unshared pointer chunk goes straight to CC). Rows holding at least
  // one diverted entry, by the same collision model as the output estimate:
  const double long_frac = out.long_entries / nnz_a;
  const double rows_with_long =
      out.long_entries > 0.0
          ? std::max(1.0, rows_a * (1.0 - std::pow(1.0 - long_frac, avg_a)))
          : 0.0;
  const double long_merge_rows = rows_with_long * clamp01(f.a_rows.avg - 1.0);
  // Composition of one such merged row: `lpr` diverted entries contribute
  // full B rows, the remaining entries contribute already-compacted ESC
  // products.
  const double lpr =
      rows_with_long > 0.0 ? out.long_entries / rows_with_long : 0.0;
  const double short_per_entry =
      esc_products / std::max(1.0, nnz_a - out.long_entries);
  const double long_row_len =
      (out.long_entries > 0.0
           ? lpr * f.products_in_rows_at_least(t) / out.long_entries
           : 0.0) +
      std::max(0.0, avg_a - lpr) * short_per_entry * compaction;
  // Segments: each diverted entry is its own chunk; the short products sit
  // in one or two ESC chunks.
  const double long_segs = lpr + 2.0;
  out.merged_rows = boundary_rows + big_rows + long_merge_rows;

  if (out.merged_rows > 0.5) {
    const double pmc = static_cast<double>(cfg.path_merge_max_chunks);
    // Case split: boundary rows go to Multi (2 chunks, small); big and
    // long rows go to Path up to the chunk cutoff, then Search.
    const double multi_rows = boundary_rows;
    const double big_path = big_chunks <= pmc ? big_rows : 0.0;
    const double big_search = big_chunks <= pmc ? 0.0 : big_rows;
    const double long_path = long_segs <= pmc ? long_merge_rows : 0.0;
    const double long_search = long_segs <= pmc ? 0.0 : long_merge_rows;

    {  // Merge-case assignment scan (MCC).
      sim::MetricCounters m;
      m.scan_elements = static_cast<std::uint64_t>(out.merged_rows);
      m.global_bytes_coalesced =
          static_cast<std::uint64_t>(out.merged_rows * 2.0 * kIdx);
      out.merge_s +=
          kernel_makespan_s(m, std::ceil(out.merged_rows / threads), dev);
    }
    // Gathered buffers are re-sorted by (local row, column) before
    // compaction (merge.cpp); local-row ids are tiny, so the pass count is
    // set by the column bits.
    const int merge_passes = sim::radix_passes(col_bits);
    const auto traffic = [&](sim::MetricCounters& m, double rows,
                             double len_per_row, double segs_per_row) {
      const double elems = rows * len_per_row;
      m.global_bytes_coalesced += static_cast<std::uint64_t>(
          2.0 * elems * (kIdx + vb) + rows * segs_per_row * 32.0);
      m.global_bytes_scattered +=
          static_cast<std::uint64_t>(rows * segs_per_row * 32.0);
      m.scan_elements += static_cast<std::uint64_t>(elems);
      m.sort_pass_elements += static_cast<std::uint64_t>(
          elems * static_cast<double>(std::max(merge_passes, 1)));
      return elems;
    };
    if (multi_rows > 0.0) {
      sim::MetricCounters m;
      const double elems = traffic(m, multi_rows, std::min(avg_c, cap), 2.0);
      const double batches = std::max(1.0, std::ceil(elems / cap));
      out.merge_s += kernel_makespan_s(m, batches, dev);
    }
    if (big_path + long_path > 0.0) {
      sim::MetricCounters m;
      double windows = 0.0;
      if (big_path > 0.0) {
        windows += big_path * std::ceil(big_len / cap);
        traffic(m, big_path, big_len, big_chunks);
      }
      if (long_path > 0.0) {
        windows += long_path * std::ceil(std::max(1.0, long_row_len / cap));
        traffic(m, long_path, long_row_len, long_segs);
      }
      // Sample-sort cut discovery per window (merge.cpp Path branch).
      m.sort_pass_elements +=
          static_cast<std::uint64_t>(windows * threads * 4.0);
      m.scan_elements += static_cast<std::uint64_t>(windows * threads);
      out.chunks += windows;
      out.merge_s +=
          kernel_makespan_s(m, std::max(1.0, big_path + long_path), dev);
    }
    if (big_search + long_search > 0.0) {
      sim::MetricCounters m;
      double windows = 0.0;
      if (big_search > 0.0) {
        windows += big_search * std::ceil(big_len / cap);
        traffic(m, big_search, big_len, big_chunks);
      }
      if (long_search > 0.0) {
        windows +=
            long_search * std::ceil(std::max(1.0, long_row_len / cap));
        traffic(m, long_search, long_row_len, long_segs);
      }
      // Binary-search sampling over the column range per window.
      const double probes =
          std::max(1.0, std::ceil(std::log2(std::max(2.0, cols_b))));
      m.compute_ops +=
          static_cast<std::uint64_t>(windows * threads * probes);
      m.scan_elements += static_cast<std::uint64_t>(windows * threads);
      out.chunks += windows;
      out.merge_s +=
          kernel_makespan_s(m, std::max(1.0, big_search + long_search), dev);
    }
  }

  // --- CC: row-pointer scan + one copy block per live chunk. --------------
  {
    sim::MetricCounters m;
    m.scan_elements = static_cast<std::uint64_t>(rows_a);
    m.global_bytes_coalesced = static_cast<std::uint64_t>(
        rows_a * kIdx * 2.0 + 2.0 * out.est_nnz_c * (kIdx + vb) +
        2.0 * long_products * (kIdx + vb));
    m.flops = static_cast<std::uint64_t>(2.0 * long_products);
    out.cc_s = kernel_makespan_s(m, std::max(1.0, out.chunks), dev);
  }

  out.total_s = out.glb_s + out.esc_s + out.merge_s + out.cc_s;
  return out;
}

double predict_makespan_s(const TuneFeatures& f, const Config& cfg,
                          std::size_t value_bytes) {
  return predict_cost(f, cfg, value_bytes).total_s;
}

}  // namespace acs::tune
