#include "suite/hybrid.hpp"

#include <algorithm>

#include "baselines/nsparse_like.hpp"
#include "core/acspgemm.hpp"
#include "estimate/estimator.hpp"
#include "matrix/stats.hpp"

namespace acs {

template <class T>
typename HybridSpgemm<T>::Choice HybridSpgemm<T>::choose(
    const Csr<T>& a, const Csr<T>& b) const {
  const double avg_a =
      static_cast<double>(a.nnz()) / std::max<index_t>(1, a.rows);
  const double avg_b =
      static_cast<double>(b.nnz()) / std::max<index_t>(1, b.rows);
  if (std::max(avg_a, avg_b) <= dense_threshold_) return Choice::AcSpgemm;

  // Estimated compaction: expected products per expected output entry
  // under the uniform-row model — the quantity the paper identifies as
  // ESC's breaking point ("the per-product cost is simply too high").
  const double products =
      static_cast<double>(a.nnz()) * avg_b;  // expectation over columns
  const double est_nnz_c = estimate::uniform_output_nnz(
      static_cast<double>(a.rows), avg_a, avg_b,
      std::max<double>(1.0, static_cast<double>(b.cols)));
  const double compaction = products / std::max(est_nnz_c, 1.0);
  return compaction >= compaction_threshold_ ? Choice::Hash
                                             : Choice::AcSpgemm;
}

template <class T>
Csr<T> HybridSpgemm<T>::multiply(const Csr<T>& a, const Csr<T>& b,
                                 SpgemmStats* stats) const {
  last_choice_ = choose(a, b);
  if (last_choice_ == Choice::Hash) return nsparse_multiply(a, b, stats);
  return acs::multiply(a, b, cfg_, stats);
}

template class HybridSpgemm<float>;
template class HybridSpgemm<double>;

}  // namespace acs
