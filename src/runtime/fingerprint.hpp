#pragma once
/// \file fingerprint.hpp
/// Structure fingerprint of a multiplication job. The plan cache
/// (plan_cache.hpp) keys execution plans on it: two jobs with equal
/// fingerprints share A's sparsity structure (row-pointer hash, shape, nnz)
/// and B's shape/nnz, so they run the same global load balancing and need
/// statistically the same chunk pool. The fingerprint deliberately does not
/// hash values or B's full structure — a collision there can only cost a
/// pool restart (which the restart protocol absorbs), never correctness,
/// because plans shortcut setup work without changing results.

#include <cstdint>

#include "arch/arch_id.hpp"
#include "matrix/csr.hpp"
#include "matrix/types.hpp"

namespace acs::runtime {

struct Fingerprint {
  std::uint64_t row_ptr_hash = 0;  ///< FNV-1a over A's row-pointer array
  index_t rows_a = 0;
  index_t cols_a = 0;
  offset_t nnz_a = 0;
  index_t rows_b = 0;
  index_t cols_b = 0;
  offset_t nnz_b = 0;
  /// Backend the plan was built for (`arch::ArchId` value). Plans are
  /// arch-specific — load balancing is structural, but learned pool sizes
  /// are learned on one device's constants (and the server's tuned
  /// overlays chosen under one arch's grid) — so two engines on different
  /// backends must never share an entry.
  std::uint32_t arch = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// Mix of all fields, suitable for unordered containers.
  [[nodiscard]] std::uint64_t hash() const;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.hash());
  }
};

/// FNV-1a over an index array (exposed for tests).
std::uint64_t hash_indices(const index_t* data, std::size_t count);

/// Fingerprint of the job C = A·B executed on backend `id`. The engine
/// keys its plan cache and the server its per-structure tune with it, so
/// the same structure under two archs occupies two entries.
template <class T>
Fingerprint fingerprint(const Csr<T>& a, const Csr<T>& b, arch::ArchId id) {
  Fingerprint f;
  f.row_ptr_hash = hash_indices(a.row_ptr.data(), a.row_ptr.size());
  f.rows_a = a.rows;
  f.cols_a = a.cols;
  f.nnz_a = a.nnz();
  f.rows_b = b.rows;
  f.cols_b = b.cols;
  f.nnz_b = b.nnz();
  f.arch = static_cast<std::uint32_t>(id);
  return f;
}

}  // namespace acs::runtime
