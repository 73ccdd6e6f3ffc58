#include "matrix/symbolic.hpp"

#include <stdexcept>

namespace acs {

template <class T>
std::vector<index_t> symbolic_row_nnz(const Csr<T>& a, const Csr<T>& b) {
  if (a.cols != b.rows)
    throw std::invalid_argument("symbolic: dimension mismatch");
  std::vector<index_t> counts(static_cast<std::size_t>(a.rows), 0);
  std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
  for (index_t r = 0; r < a.rows; ++r) {
    index_t count = 0;
    for (index_t ka = a.row_ptr[usize(r)]; ka < a.row_ptr[usize(r) + 1];
         ++ka) {
      const index_t k = a.col_idx[usize(ka)];
      for (index_t kb = b.row_ptr[usize(k)]; kb < b.row_ptr[usize(k) + 1];
           ++kb) {
        const index_t col = b.col_idx[usize(kb)];
        if (marker[usize(col)] != r) {
          marker[usize(col)] = r;
          ++count;
        }
      }
    }
    counts[usize(r)] = count;
  }
  return counts;
}

template <class T>
offset_t symbolic_nnz(const Csr<T>& a, const Csr<T>& b) {
  offset_t total = 0;
  for (index_t c : symbolic_row_nnz(a, b)) total += c;
  return total;
}

template std::vector<index_t> symbolic_row_nnz(const Csr<float>&, const Csr<float>&);
template std::vector<index_t> symbolic_row_nnz(const Csr<double>&, const Csr<double>&);
template offset_t symbolic_nnz(const Csr<float>&, const Csr<float>&);
template offset_t symbolic_nnz(const Csr<double>&, const Csr<double>&);

}  // namespace acs
