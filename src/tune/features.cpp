#include "tune/features.hpp"

#include <algorithm>

#include "estimate/estimator.hpp"

namespace acs::tune {

double TuneFeatures::products_in_rows_at_least(index_t t) const {
  // sampled_b_lens is sorted ascending; sum the tail.
  auto it = std::lower_bound(sampled_b_lens.begin(), sampled_b_lens.end(), t);
  double sum = 0.0;
  for (; it != sampled_b_lens.end(); ++it) sum += static_cast<double>(*it);
  return sum * static_cast<double>(stride);
}

double TuneFeatures::entries_in_rows_at_least(index_t t) const {
  auto it = std::lower_bound(sampled_b_lens.begin(), sampled_b_lens.end(), t);
  return static_cast<double>(sampled_b_lens.end() - it) *
         static_cast<double>(stride);
}

RowLengthProfile row_length_profile(const std::vector<index_t>& row_ptr,
                                    index_t rows) {
  RowLengthProfile p;
  if (rows <= 0) return p;
  std::vector<index_t> lens(static_cast<std::size_t>(rows));
  for (index_t r = 0; r < rows; ++r)
    lens[static_cast<std::size_t>(r)] =
        row_ptr[static_cast<std::size_t>(r) + 1] -
        row_ptr[static_cast<std::size_t>(r)];
  std::sort(lens.begin(), lens.end());
  const auto at = [&](double q) {
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(lens.size() - 1));
    return lens[i];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.max = lens.back();
  p.avg = static_cast<double>(row_ptr[static_cast<std::size_t>(rows)]) /
          static_cast<double>(rows);
  return p;
}

template <class T>
TuneFeatures extract_features(const Csr<T>& a, const Csr<T>& b,
                              std::size_t sample_stride,
                              std::size_t min_samples) {
  TuneFeatures f;
  f.rows_a = a.rows;
  f.cols_a = a.cols;
  f.rows_b = b.rows;
  f.cols_b = b.cols;
  f.nnz_a = a.nnz();
  f.nnz_b = b.nnz();
  f.a_rows = row_length_profile(a.row_ptr, a.rows);
  f.b_rows = row_length_profile(b.row_ptr, b.rows);

  // Strided sample of A's column ids against B's row lengths — the shared
  // sampling core of src/estimate, so the tuner and the memory planner can
  // never disagree about the sample. Each sample is weighted by the entries
  // of A its window actually covers (a partial final window is charged its
  // true size).
  estimate::RowSample s =
      estimate::sample_b_row_lengths(a, b, sample_stride, min_samples);
  const estimate::ProductEstimate est = estimate::products_from_sample(s);
  f.stride = s.stride;
  f.sampled = s.sampled;
  f.est_products = est.expected;
  f.sampled_b_lens = std::move(s.b_lens);  // already sorted ascending
  return f;
}

template TuneFeatures extract_features(const Csr<float>&, const Csr<float>&,
                                       std::size_t, std::size_t);
template TuneFeatures extract_features(const Csr<double>&, const Csr<double>&,
                                       std::size_t, std::size_t);

}  // namespace acs::tune
