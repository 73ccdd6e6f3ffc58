#pragma once
/// Shared helpers for the test suite.

#include <cmath>

#include "matrix/csr.hpp"

namespace acs::testutil {

/// Round all values to multiples of 0.25. Products are then multiples of
/// 1/16 and sums of moderately many of them are exactly representable in
/// float and double, so *any* accumulation order gives bit-identical
/// results — letting tests compare different algorithms exactly.
template <class T>
Csr<T> quantize(Csr<T> m) {
  for (auto& v : m.values) {
    v = static_cast<T>(std::round(static_cast<double>(v) * 4.0) / 4.0);
    if (v == T{0}) v = static_cast<T>(0.25);  // keep the sparsity pattern
  }
  return m;
}

/// A `rows`×`cols` matrix with a single entry at (0, `col`). With `col`
/// equal to B's row count it is a valid A whose first column id is one row
/// past the end of B — the first entry the sampled pool estimate and the
/// tuner's feature pass look up in B.
template <class T>
Csr<T> single_entry(index_t rows, index_t cols, index_t col) {
  Csr<T> m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 1);
  m.row_ptr[0] = 0;
  m.col_idx = {col};
  m.values = {T{1}};
  return m;
}

}  // namespace acs::testutil
