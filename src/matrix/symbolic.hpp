#pragma once
/// \file symbolic.hpp
/// Symbolic SpGEMM: exact sparsity information of C = A·B without computing
/// values. The sequential tool behind output-size validation, the probability
/// model checks, and downstream allocation decisions.

#include <vector>

#include "matrix/csr.hpp"

namespace acs {

/// Exact nnz per output row of A·B (marker-SPA pass, O(intermediate
/// products)).
template <class T>
std::vector<index_t> symbolic_row_nnz(const Csr<T>& a, const Csr<T>& b);

/// Exact total nnz of A·B.
template <class T>
offset_t symbolic_nnz(const Csr<T>& a, const Csr<T>& b);

extern template std::vector<index_t> symbolic_row_nnz(const Csr<float>&, const Csr<float>&);
extern template std::vector<index_t> symbolic_row_nnz(const Csr<double>&, const Csr<double>&);
extern template offset_t symbolic_nnz(const Csr<float>&, const Csr<float>&);
extern template offset_t symbolic_nnz(const Csr<double>&, const Csr<double>&);

}  // namespace acs
