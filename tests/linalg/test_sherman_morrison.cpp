// Property tests for the Sherman–Morrison incremental inverse — the engine
// room of Megh's O(#migrations) update (paper Eq. 11). The sparse production
// path must agree with dense Gauss–Jordan inversion after arbitrary
// sequences of the unit-vector rank-1 updates Megh performs.
#include "oracle/sherman_morrison.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace megh {
namespace {

TEST(ShermanMorrisonDenseTest, MatchesDirectInverse) {
  Rng rng(3);
  const int n = 5;
  DenseMatrix t = DenseMatrix::identity(n, 2.0);
  DenseMatrix b = t.inverse();
  for (int step = 0; step < 20; ++step) {
    std::vector<double> u(n), v(n);
    for (int i = 0; i < n; ++i) {
      u[static_cast<std::size_t>(i)] = rng.normal(0.0, 0.3);
      v[static_cast<std::size_t>(i)] = rng.normal(0.0, 0.3);
    }
    t.rank1_update(u, v, 1.0);
    ASSERT_TRUE(sherman_morrison_update(b, u, v));
    EXPECT_LT(b.max_abs_diff(t.inverse()), 1e-7) << "step " << step;
  }
}

TEST(ShermanMorrisonDenseTest, SingularDenominatorRejected) {
  // T = I, update u = e0, v = -e0: denom = 1 + vᵀBu = 1 - 1 = 0.
  DenseMatrix b = DenseMatrix::identity(2);
  const std::vector<double> u{1.0, 0.0};
  const std::vector<double> v{-1.0, 0.0};
  EXPECT_FALSE(sherman_morrison_update(b, u, v));
  // B untouched.
  EXPECT_LT(b.max_abs_diff(DenseMatrix::identity(2)), 1e-15);
}

// Parameterized over (dimension, gamma): replay Megh's exact update shape
// T += e_a (e_a − γ e_b)ᵀ on the sparse inverse and compare against dense.
class UnitUpdateProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(UnitUpdateProperty, SparseInverseTracksDense) {
  const auto [n, gamma] = GetParam();
  Rng rng(42 + n);
  const double delta = n;
  SparseMatrix b_sparse(n, 1.0 / delta);
  DenseMatrix t = DenseMatrix::identity(n, delta);

  for (int step = 0; step < 40; ++step) {
    const auto a = static_cast<SparseMatrix::Index>(
        rng.index(static_cast<std::size_t>(n)));
    const auto bb = static_cast<SparseMatrix::Index>(
        rng.index(static_cast<std::size_t>(n)));
    SparseVector u(n), v(n);
    u.set(a, 1.0);
    v.set(a, 1.0);
    v.add(bb, -gamma);

    std::vector<double> u_dense = u.to_dense();
    std::vector<double> v_dense = v.to_dense();
    t.rank1_update(u_dense, v_dense, 1.0);
    ASSERT_TRUE(sherman_morrison_update(b_sparse, u, v));
    EXPECT_LT(to_dense(b_sparse).max_abs_diff(t.inverse()), 1e-7)
        << "n=" << n << " gamma=" << gamma << " step=" << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndGammas, UnitUpdateProperty,
    ::testing::Combine(::testing::Values(3, 8, 16),
                       ::testing::Values(0.0, 0.5, 0.9)));

TEST(ShermanMorrisonSparseTest, UpdateTouchesOnlyRelevantRowsAndCols) {
  // After one unit update on a diagonal matrix, off-diagonal fill must be
  // confined to row/col a and b — the sparsity claim behind Sec. 5.2.
  const int n = 50;
  SparseMatrix b(n, 1.0 / n);
  SparseVector u(n), v(n);
  u.set(7, 1.0);
  v.set(7, 1.0);
  v.add(12, -0.5);
  ASSERT_TRUE(sherman_morrison_update(b, u, v));
  const DenseMatrix dense = to_dense(b);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (r == c) continue;
      if (r == 7 || c == 7 || c == 12) continue;
      EXPECT_EQ(dense.at(r, c), 0.0) << r << "," << c;
    }
  }
}

}  // namespace
}  // namespace megh
