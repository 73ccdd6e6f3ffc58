#include "estimate/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace acs::estimate {

index_t RowSample::quantile(double q) const {
  if (b_lens.empty()) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto i = static_cast<std::size_t>(
      clamped * static_cast<double>(b_lens.size() - 1) + 0.5);
  return b_lens[std::min(i, b_lens.size() - 1)];
}

template <class T>
RowSample sample_b_row_lengths(const Csr<T>& a, const Csr<T>& b,
                               std::size_t sample_stride,
                               std::size_t min_samples) {
  RowSample s;
  const std::size_t nnz = usize(a.nnz());
  s.nnz_a = nnz;
  std::size_t stride = std::max<std::size_t>(1, sample_stride);
  if (min_samples > 0 && nnz > 0)
    stride = std::min(stride, std::max<std::size_t>(1, nnz / min_samples));
  s.stride = stride;
  s.exact = stride == 1 || nnz == 0;

  // Exact min/max row length over all of B (one row-pointer pass): what an
  // unsampled entry of A can at least / at most produce, anchoring the
  // guaranteed bounds below.
  if (b.rows > 0) {
    s.b_min_len = std::numeric_limits<index_t>::max();
    for (index_t r = 0; r < b.rows; ++r) {
      const index_t len = b.row_length(r);
      s.b_min_len = std::min(s.b_min_len, len);
      s.b_max_len = std::max(s.b_max_len, len);
    }
  }

  s.b_lens.reserve(nnz / stride + 1);
  for (std::size_t i = 0; i < nnz; i += stride)
    s.b_lens.push_back(b.row_length(a.col_idx[i]));
  s.sampled = s.b_lens.size();

  // Window-weighted aggregates. Window k covers min(stride, nnz - k·stride)
  // entries of A, so the weights tile nnz(A) exactly: the partial final
  // window is neither extrapolated to a full stride (expected) nor left
  // uncharged (conservative) — the tail bug this pass replaces. The
  // conservative charge per window is the larger of its two bounding
  // samples; a window that is its own sample (stride 1, or the final
  // window) is bounded by itself.
  for (std::size_t k = 0; k < s.sampled; ++k) {
    const double len = static_cast<double>(s.b_lens[k]);
    const double next = s.exact || k + 1 == s.sampled
                            ? len
                            : static_cast<double>(s.b_lens[k + 1]);
    const double window =
        static_cast<double>(std::min(stride, nnz - k * stride));
    s.sum += len;
    s.expected += len * window;
    s.conservative += std::max(len, next) * window;
  }
  std::sort(s.b_lens.begin(), s.b_lens.end());
  return s;
}

ProductEstimate products_from_sample(const RowSample& s) {
  ProductEstimate e;
  e.exact = s.exact;
  e.expected = s.expected;
  const double unsampled =
      static_cast<double>(s.nnz_a) - static_cast<double>(s.sampled);
  e.lower = s.sum + unsampled * static_cast<double>(s.b_min_len);
  e.upper = s.sum + unsampled * static_cast<double>(s.b_max_len);
  // lower ≤ expected ≤ upper holds by construction (every sampled length is
  // within [b_min_len, b_max_len]); the heuristic is clamped into the same
  // envelope so it can never undercut the expectation nor exceed the proof.
  e.conservative = std::clamp(s.conservative, e.expected, e.upper);
  return e;
}

template <class T>
ProductEstimate estimate_products(const Csr<T>& a, const Csr<T>& b,
                                  std::size_t sample_stride,
                                  std::size_t min_samples) {
  return products_from_sample(
      sample_b_row_lengths(a, b, sample_stride, min_samples));
}

double uniform_output_nnz(double rows_a, double avg_a, double avg_b,
                          double cols_b) {
  const double p_b = avg_b / cols_b;
  const double collision =
      p_b < 1e-12 ? avg_a : (1.0 - std::pow(1.0 - p_b, avg_a)) / p_b;
  return rows_a * avg_b * collision;
}

std::size_t saturate_bytes(double bytes) {
  if (!(bytes > 0.0)) return 0;  // NaN and negatives collapse here
  constexpr double kMax =
      static_cast<double>(std::numeric_limits<std::size_t>::max());
  if (bytes >= kMax) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(bytes);
}

std::size_t chunk_layout_bytes(double entries, const PoolSizingParams& p) {
  if (!(entries > 0.0)) return 0;
  const double cap =
      static_cast<double>(std::max<std::size_t>(1, p.chunk_entry_capacity));
  const double chunks = std::ceil(entries / cap);
  return saturate_bytes(entries * static_cast<double>(p.entry_bytes) +
                        chunks * static_cast<double>(p.chunk_header_bytes));
}

template <class T>
PoolPlan plan_pool_bytes(const Csr<T>& a, const Csr<T>& b,
                         const PoolSizingParams& p) {
  PoolPlan plan;
  plan.sample = sample_b_row_lengths(a, b, p.sample_stride, p.min_samples);
  plan.products = products_from_sample(plan.sample);
  const RowSample& s = plan.sample;
  const ProductEstimate& e = plan.products;

  // Quantile charge: unsampled entries pay the q-quantile of the sampled
  // length distribution — heavier than the mean on skewed inputs — clamped
  // into the guaranteed envelope.
  const double unsampled =
      static_cast<double>(s.nnz_a) - static_cast<double>(s.sampled);
  const double charged =
      std::clamp(s.sum + unsampled * static_cast<double>(s.quantile(p.quantile)),
                 e.expected, e.upper);

  // Local ESC compaction merges colliding column ids before a chunk is
  // written, so the materialized payload is the *surviving* fraction of the
  // symbolic products. The paper's uniform collision model gives that
  // fraction as (1 - (1 - p_b)^a) / (p_b · a) — the closed form's collision
  // term, reused here so dense-overlap inputs (block patterns) are not
  // charged for products compaction folds away. Only layout bytes are
  // discounted; the guaranteed product bounds above stay symbolic.
  const double rows_a = std::max(1.0, static_cast<double>(a.rows));
  const double rows_b = std::max(1.0, static_cast<double>(b.rows));
  const double cols_b = std::max(1.0, static_cast<double>(b.cols));
  const double avg_a = static_cast<double>(a.nnz()) / rows_a;
  const double p_b = static_cast<double>(b.nnz()) / rows_b / cols_b;
  double survival = 1.0;
  if (p_b > 1e-12 && avg_a > 1.0)
    survival = std::clamp(
        (1.0 - std::pow(1.0 - p_b, avg_a)) / (p_b * avg_a), 0.0, 1.0);

  // Lay `products` out as chunks. Products in B rows at or beyond the
  // long-row threshold are never materialized: each such entry of A costs
  // one fixed pointer-chunk record instead (chunk.hpp, paper §3.4). The
  // sorted sample gives both the diverted product mass and the pointer
  // count without another matrix pass.
  const auto layout_bytes = [&](double products) {
    double diverted = 0.0;
    double pointer_entries = 0.0;
    if (p.long_row_threshold > 0) {
      const auto it = std::lower_bound(s.b_lens.begin(), s.b_lens.end(),
                                       p.long_row_threshold);
      double tail = 0.0;
      for (auto j = it; j != s.b_lens.end(); ++j)
        tail += static_cast<double>(*j);
      const double scale = s.exact ? 1.0 : static_cast<double>(s.stride);
      diverted = std::min(tail * scale, products);
      pointer_entries = static_cast<double>(s.b_lens.end() - it) * scale;
    }
    const double materialized =
        (products - diverted) * survival * (1.0 + p.merge_headroom);
    return saturate_bytes(
        static_cast<double>(chunk_layout_bytes(materialized, p)) +
        pointer_entries * static_cast<double>(p.pointer_chunk_bytes));
  };

  plan.expected_bytes = layout_bytes(e.expected);
  plan.upper_bytes = layout_bytes(e.upper);
  plan.recommended_bytes = std::max(p.lower_bound_bytes, layout_bytes(charged));
  return plan;
}

template RowSample sample_b_row_lengths(const Csr<float>&, const Csr<float>&,
                                        std::size_t, std::size_t);
template RowSample sample_b_row_lengths(const Csr<double>&, const Csr<double>&,
                                        std::size_t, std::size_t);
template ProductEstimate estimate_products(const Csr<float>&,
                                           const Csr<float>&, std::size_t,
                                           std::size_t);
template ProductEstimate estimate_products(const Csr<double>&,
                                           const Csr<double>&, std::size_t,
                                           std::size_t);
template PoolPlan plan_pool_bytes(const Csr<float>&, const Csr<float>&,
                                  const PoolSizingParams&);
template PoolPlan plan_pool_bytes(const Csr<double>&, const Csr<double>&,
                                  const PoolSizingParams&);

}  // namespace acs::estimate
