#pragma once
/// \file features.hpp
/// Cheap structural features of a multiplication job C = A·B, the input of
/// the auto-tuner's candidate ranking (tuner.hpp). Everything here is a
/// pure function of the operands' *sparsity structure* — row pointers and
/// column ids, never values — so a feature set (and hence every tuning
/// decision derived from it) applies to all jobs sharing a structure
/// fingerprint (runtime/fingerprint.hpp), and extraction costs one pass
/// over A's row pointer plus a strided sample of A's column ids against
/// B's row lengths. Temporary products are *estimated* from that sample by
/// the shared estimator of src/estimate (window-weighted expected value; a
/// conservative variant charges each window the larger of its bounding
/// samples); the feedback tuning mode later replaces the estimate with the
/// exact measured count (`SpgemmStats::intermediate_products`).

#include <cstddef>
#include <vector>

#include "matrix/csr.hpp"
#include "matrix/types.hpp"

namespace acs::tune {

/// Row-length quantiles of one CSR operand (exact, from the row pointer).
struct RowLengthProfile {
  index_t p50 = 0;
  index_t p90 = 0;
  index_t p99 = 0;
  index_t max = 0;
  double avg = 0.0;
};

struct TuneFeatures {
  index_t rows_a = 0, cols_a = 0;
  index_t rows_b = 0, cols_b = 0;
  offset_t nnz_a = 0, nnz_b = 0;
  RowLengthProfile a_rows;
  RowLengthProfile b_rows;

  /// Estimated temporary products Σ_{(i,k) ∈ A} |B_k| from the strided
  /// sample (each sampled B-row length weighted by the entries of A its
  /// window covers, so a partial final window is charged its true size).
  double est_products = 0.0;

  /// B-row lengths seen by the sample, sorted ascending. Lets the ranking
  /// evaluate any long-row threshold without another pass: the products
  /// routed to pointer chunks under threshold t are
  /// stride × Σ {len ∈ sampled_b_lens : len ≥ t}.
  std::vector<index_t> sampled_b_lens;
  /// Entries of A actually sampled (== sampled_b_lens.size()).
  std::size_t sampled = 0;
  /// Effective sampling stride used (≥ 1).
  std::size_t stride = 1;

  /// Sampled products at or above B-row length `t`, scaled by the stride —
  /// the work a long-row threshold of `t` would divert into pointer chunks.
  [[nodiscard]] double products_in_rows_at_least(index_t t) const;
  /// Sampled A entries whose B row is at least `t` long, scaled — the
  /// pointer chunks such a threshold would create.
  [[nodiscard]] double entries_in_rows_at_least(index_t t) const;
};

/// Exact row-length quantiles from a CSR row pointer.
RowLengthProfile row_length_profile(const std::vector<index_t>& row_ptr,
                                    index_t rows);

/// Extract features for C = A·B. `sample_stride` controls the B-length
/// sampling pass: every stride-th non-zero of A is inspected (deterministic,
/// value-independent). Stride is clamped so that at least
/// `min_samples` entries are inspected when A has that many.
template <class T>
TuneFeatures extract_features(const Csr<T>& a, const Csr<T>& b,
                              std::size_t sample_stride = 8,
                              std::size_t min_samples = 512);

extern template TuneFeatures extract_features(const Csr<float>&,
                                              const Csr<float>&, std::size_t,
                                              std::size_t);
extern template TuneFeatures extract_features(const Csr<double>&,
                                              const Csr<double>&, std::size_t,
                                              std::size_t);

}  // namespace acs::tune
