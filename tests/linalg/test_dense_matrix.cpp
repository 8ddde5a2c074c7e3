#include "oracle/dense_matrix.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace megh {
namespace {

TEST(DenseMatrixTest, IdentityAndAt) {
  const DenseMatrix id = DenseMatrix::identity(3, 2.0);
  EXPECT_DOUBLE_EQ(id.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(id.at(0, 1), 0.0);
}

TEST(DenseMatrixTest, MatVec) {
  DenseMatrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(0, 2) = 3;
  m.at(1, 2) = -1;
  const auto y = m.multiply(std::vector<double>{1.0, 1.0, 2.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(DenseMatrixTest, MatMatAssociatesWithVector) {
  Rng rng(1);
  DenseMatrix a(4, 4), b(4, 4);
  std::vector<double> x(4);
  for (int i = 0; i < 4; ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
    for (int j = 0; j < 4; ++j) {
      a.at(i, j) = rng.normal();
      b.at(i, j) = rng.normal();
    }
  }
  const auto ab_x = a.multiply(b).multiply(x);
  const auto a_bx = a.multiply(b.multiply(x));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(ab_x[static_cast<std::size_t>(i)],
                a_bx[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(DenseMatrixTest, InverseOfIdentityScales) {
  const DenseMatrix inv = DenseMatrix::identity(4, 5.0).inverse();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(inv.at(i, i), 0.2, 1e-12);
  }
}

TEST(DenseMatrixTest, RandomInversesMultiplyToIdentity) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + trial % 5;
    DenseMatrix m = DenseMatrix::identity(n);  // diag-dominant: invertible
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        m.at(i, j) += rng.normal(0.0, 0.2);
      }
      m.at(i, i) += 2.0;
    }
    const DenseMatrix product = m.multiply(m.inverse());
    EXPECT_LT(product.max_abs_diff(DenseMatrix::identity(n)), 1e-8);
  }
}

TEST(DenseMatrixTest, SingularThrows) {
  DenseMatrix m(2, 2, 1.0);  // rank 1
  EXPECT_THROW(m.inverse(), Error);
}

TEST(DenseMatrixTest, PivotingHandlesZeroLeadingDiagonal) {
  DenseMatrix m(2, 2);
  m.at(0, 0) = 0;
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 0;
  const DenseMatrix inv = m.inverse();  // swap matrix is its own inverse
  EXPECT_NEAR(inv.at(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(inv.at(1, 0), 1.0, 1e-12);
}

TEST(DenseMatrixTest, Rank1Update) {
  DenseMatrix m = DenseMatrix::identity(2);
  m.rank1_update(std::vector<double>{1.0, 2.0},
                 std::vector<double>{3.0, 4.0}, 0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0 + 1.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 1.0 + 4.0);
}

}  // namespace
}  // namespace megh
