#pragma once
/// \file estimator.hpp
/// Sampling-based size estimation for C = A·B — the memory planner the
/// closed-form pool guess of `estimate_chunk_pool_bytes` graduates into
/// (DESIGN.md §12). One deterministic strided pass over A's column ids
/// against B's row lengths yields
///   * an *expected* temporary-product count (each sample weighted by the
///     entries of A it stands for, so a partial final window is charged its
///     true size, never a full stride),
///   * a *conservative* heuristic (each window charged the larger of its two
///     bounding samples — locally heavy stretches of B are not diluted),
///   * *guaranteed* lower/upper bounds (unsampled entries charged B's exact
///     global min/max row length), bracketing the exact symbolic count
///     `intermediate_products(a, b)` for every input, and
///   * the sorted sample itself, from which any quantile of the B-row-length
///     distribution is read off without another pass.
/// `plan_pool_bytes` turns the estimate into a chunk-pool recommendation in
/// bytes of the *actual chunk layout* (headers, per-entry payload cost and
/// pointer-chunk diversion from core/chunk.hpp), not abstract elements.
///
/// Everything here is a pure function of the operands' sparsity structure —
/// never values, never global state — so consumers that replay decision
/// streams (src/serve) stay deterministic, and one estimate is valid for
/// every job sharing a structure fingerprint. The tuner's feature extraction
/// (tune/features.cpp) delegates its sampling core to `sample_b_row_lengths`
/// so the planner and the tuner can never disagree about the sample.

#include <cstddef>
#include <vector>

#include "matrix/csr.hpp"
#include "matrix/types.hpp"

namespace acs::estimate {

/// Deterministic strided sample of B-row lengths over A's column ids, plus
/// the window-weighted aggregates derived from it. Window k covers the
/// entries [k·stride, min((k+1)·stride, nnz(A))) of A and is represented by
/// the sample at its first entry; window weights therefore sum to exactly
/// nnz(A), including a partial final window.
struct RowSample {
  /// Sampled B-row lengths, sorted ascending (quantile lookups).
  std::vector<index_t> b_lens;
  std::size_t sampled = 0;  ///< == b_lens.size()
  std::size_t stride = 1;   ///< effective stride after min_samples clamping
  std::size_t nnz_a = 0;
  /// True when every entry of A was inspected (stride 1): `expected` is
  /// then the exact symbolic product count.
  bool exact = false;
  double sum = 0.0;           ///< Σ sampled lengths (unweighted)
  double expected = 0.0;      ///< Σ_k len_k · window_k
  double conservative = 0.0;  ///< Σ_k max(len_k, len_{k+1}) · window_k
  /// Exact min/max row length over all of B (one pass over B's row
  /// pointer) — the anchors of the guaranteed bounds.
  index_t b_min_len = 0;
  index_t b_max_len = 0;

  /// q-quantile (q in [0, 1]) of the sampled length distribution; 0 when
  /// nothing was sampled.
  [[nodiscard]] index_t quantile(double q) const;
};

/// Sample every `sample_stride`-th non-zero of A (clamped so at least
/// `min_samples` entries are inspected when A has that many) and look up the
/// length of the B row it selects. Deterministic and value-independent.
template <class T>
RowSample sample_b_row_lengths(const Csr<T>& a, const Csr<T>& b,
                               std::size_t sample_stride,
                               std::size_t min_samples);

/// Temporary-product estimate distilled from a `RowSample`. The guaranteed
/// bounds hold unconditionally: lower ≤ intermediate_products(a, b) ≤ upper.
struct ProductEstimate {
  double expected = 0.0;
  double conservative = 0.0;  ///< heuristic upper; ≥ expected by construction
  double lower = 0.0;         ///< guaranteed (unsampled entries at min |B row|)
  double upper = 0.0;         ///< guaranteed (unsampled entries at max |B row|)
  bool exact = false;         ///< expected == lower == upper == exact count
};

/// Derive the product estimate from an existing sample (no matrix access).
[[nodiscard]] ProductEstimate products_from_sample(const RowSample& s);

/// One-call convenience: sample, then distill.
template <class T>
ProductEstimate estimate_products(const Csr<T>& a, const Csr<T>& b,
                                  std::size_t sample_stride = 8,
                                  std::size_t min_samples = 512);

/// Expected nnz(C) under the paper's uniform-row collision model: `rows_a`
/// rows of A with `avg_a` entries each select rows of B with `avg_b`
/// entries spread uniformly over `cols_b` columns, so
///   S = rows_a · avg_b · (1 − (1 − p_b)^avg_a) / p_b,  p_b = avg_b / cols_b
/// (rows_a · avg_b · avg_a when p_b vanishes). The one spelling of the
/// formula: the closed-form chunk-pool guess and the tuner's output-size
/// estimate both call it, each with its own clamps on the arguments and
/// the result.
[[nodiscard]] double uniform_output_nnz(double rows_a, double avg_a,
                                        double avg_b, double cols_b);

/// Saturating double→size_t conversion for byte quantities: NaN and
/// negative values collapse to 0, anything at or beyond the size_t range
/// saturates to the maximum instead of truncating or wrapping (the
/// restart-storm bug a bare static_cast invites on hub-heavy inputs).
[[nodiscard]] std::size_t saturate_bytes(double bytes);

/// Everything the pool planner needs to know about the consumer's chunk
/// layout and sampling policy — a value-type mirror of the `Config` fields
/// involved, so this module depends only on src/matrix.
struct PoolSizingParams {
  /// Quantile of the sampled B-row-length distribution charged per
  /// unsampled entry — the planner's safety margin (replaces the closed
  /// form's flat pool_estimate_factor).
  double quantile = 0.9;
  std::size_t sample_stride = 8;
  std::size_t min_samples = 512;
  /// Entries one block flush materializes at most (Config::temp_capacity());
  /// amortizes one chunk header per that many entries.
  std::size_t chunk_entry_capacity = 2048;
  /// Bytes charged per materialized temporary entry (core/chunk.hpp
  /// kChunkEntryBytes<T>: column id + value + amortized row boundary).
  std::size_t entry_bytes = 16;
  std::size_t chunk_header_bytes = 32;    ///< kChunkHeaderBytes
  std::size_t pointer_chunk_bytes = 48;   ///< kPointerChunkBytes
  /// B rows at least this long divert to fixed-size pointer chunks instead
  /// of materializing; 0 = no long-row handling.
  index_t long_row_threshold = 0;
  /// Headroom multiplier on the materialized payload for merge outputs
  /// (rows shared between chunks are rewritten once by the merge stage).
  double merge_headroom = 0.25;
  std::size_t lower_bound_bytes = 0;  ///< Config::pool_lower_bound_bytes
};

/// Pool recommendation in bytes of actual chunk layout.
struct PoolPlan {
  /// What the consumer should allocate: quantile-charged products laid out
  /// as chunks, clamped into [expected_bytes, upper_bytes] and floored at
  /// `lower_bound_bytes`.
  std::size_t recommended_bytes = 0;
  std::size_t expected_bytes = 0;  ///< expected products, same layout
  std::size_t upper_bytes = 0;     ///< guaranteed-upper products, same layout
  ProductEstimate products;
  RowSample sample;
};

/// Lay out `entries` materialized products as chunks: per-entry payload plus
/// one header per `chunk_entry_capacity` entries (partial chunks round up).
[[nodiscard]] std::size_t chunk_layout_bytes(double entries,
                                             const PoolSizingParams& p);

/// Size the chunk pool for C = A·B from a strided sample. Pure function of
/// (a, b, p): replayable, fingerprint-shareable, value-independent.
template <class T>
PoolPlan plan_pool_bytes(const Csr<T>& a, const Csr<T>& b,
                         const PoolSizingParams& p);

extern template RowSample sample_b_row_lengths(const Csr<float>&,
                                               const Csr<float>&, std::size_t,
                                               std::size_t);
extern template RowSample sample_b_row_lengths(const Csr<double>&,
                                               const Csr<double>&, std::size_t,
                                               std::size_t);
extern template ProductEstimate estimate_products(const Csr<float>&,
                                                  const Csr<float>&,
                                                  std::size_t, std::size_t);
extern template ProductEstimate estimate_products(const Csr<double>&,
                                                  const Csr<double>&,
                                                  std::size_t, std::size_t);
extern template PoolPlan plan_pool_bytes(const Csr<float>&, const Csr<float>&,
                                         const PoolSizingParams&);
extern template PoolPlan plan_pool_bytes(const Csr<double>&,
                                         const Csr<double>&,
                                         const PoolSizingParams&);

}  // namespace acs::estimate
