#include "matrix/symbolic.hpp"

#include <gtest/gtest.h>

#include "baselines/spa_gustavson.hpp"
#include "estimate/estimator.hpp"
#include "matrix/generators.hpp"
#include "matrix/transpose.hpp"

namespace acs {
namespace {

/// The paper's uniform-row estimate of nnz(A·A) (Section 4).
double uniform_estimate(const Csr<double>& a) {
  const double rows = static_cast<double>(a.rows);
  const double avg = static_cast<double>(a.nnz()) / rows;
  return estimate::uniform_output_nnz(rows, avg, avg,
                                      static_cast<double>(a.cols));
}

TEST(Symbolic, RowNnzMatchesNumericProduct) {
  const auto a = gen_powerlaw<double>(400, 400, 6.0, 1.7, 120, 81);
  const auto c = spa_multiply(a, a);
  const auto counts = symbolic_row_nnz(a, a);
  ASSERT_EQ(counts.size(), static_cast<std::size_t>(a.rows));
  for (index_t r = 0; r < a.rows; ++r)
    EXPECT_EQ(counts[static_cast<std::size_t>(r)], c.row_length(r)) << r;
}

TEST(Symbolic, TotalMatchesNumeric) {
  const auto a = gen_uniform_random<double>(300, 500, 7.0, 2.0, 82);
  const auto at = transpose(a);
  EXPECT_EQ(symbolic_nnz(a, at), spa_multiply(a, at).nnz());
}

TEST(Symbolic, EmptyMatrix) {
  Csr<double> a;
  a.rows = a.cols = 4;
  a.row_ptr.assign(5, 0);
  EXPECT_EQ(symbolic_nnz(a, a), 0);
}

TEST(Symbolic, DimensionMismatchThrows) {
  const auto a = gen_uniform_random<double>(10, 20, 3.0, 1.0, 83);
  EXPECT_THROW(symbolic_row_nnz(a, a), std::invalid_argument);
}

TEST(Symbolic, EstimateIsAccurateOnUniformMatrices) {
  // The paper's chunk-pool estimate assumes uniformly distributed rows;
  // on matrices that actually satisfy the assumption it must be close.
  const auto a = gen_uniform_random<double>(2000, 2000, 10.0, 0.0, 84);
  const double est = uniform_estimate(a);
  const auto real = static_cast<double>(symbolic_nnz(a, a));
  EXPECT_NEAR(est / real, 1.0, 0.15);
}

TEST(Symbolic, EstimateIsConservativeDirectionOnSkewedMatrices) {
  // Heavy row-length skew violates the model; the estimate still lands
  // within an order of magnitude (the paper's 1.2x factor + restart
  // mechanism absorbs the rest).
  const auto a = gen_powerlaw<double>(2000, 2000, 6.0, 1.5, 600, 85);
  const double est = uniform_estimate(a);
  const auto real = static_cast<double>(symbolic_nnz(a, a));
  EXPECT_GT(est / real, 0.1);
  EXPECT_LT(est / real, 10.0);
}

}  // namespace
}  // namespace acs
