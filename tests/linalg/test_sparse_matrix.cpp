#include "linalg/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "oracle/dense_matrix.hpp"

namespace megh {
namespace {

TEST(SparseMatrixTest, DiagonalInitialization) {
  SparseMatrix m(4, 0.25);
  EXPECT_DOUBLE_EQ(m.get(2, 2), 0.25);
  EXPECT_DOUBLE_EQ(m.get(1, 2), 0.0);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.offdiag_nnz(), 0u);
}

TEST(SparseMatrixTest, SetAddAndPrune) {
  SparseMatrix m(3);
  m.set(0, 1, 2.0);
  m.add(0, 1, -2.0);
  EXPECT_EQ(m.offdiag_nnz(), 0u);
  m.add(2, 0, 5.0);
  EXPECT_DOUBLE_EQ(m.get(2, 0), 5.0);
}

TEST(SparseMatrixTest, RowAndColViews) {
  SparseMatrix m(4, 1.0);
  m.set(1, 3, 7.0);
  m.set(2, 3, 9.0);
  const SparseVector row1 = m.row(1);
  EXPECT_DOUBLE_EQ(row1.get(1), 1.0);
  EXPECT_DOUBLE_EQ(row1.get(3), 7.0);
  EXPECT_EQ(row1.nnz(), 2u);
  const SparseVector col3 = m.col(3);
  EXPECT_DOUBLE_EQ(col3.get(1), 7.0);
  EXPECT_DOUBLE_EQ(col3.get(2), 9.0);
  EXPECT_DOUBLE_EQ(col3.get(3), 1.0);
  EXPECT_EQ(col3.nnz(), 3u);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  Rng rng(4);
  SparseMatrix m(6, 0.5);
  for (int k = 0; k < 8; ++k) {
    m.set(static_cast<SparseMatrix::Index>(rng.index(6)),
          static_cast<SparseMatrix::Index>(rng.index(6)), rng.normal());
  }
  SparseVector x(6);
  x.set(1, 2.0);
  x.set(4, -1.0);
  const SparseVector y = m.multiply(x);
  const auto y_dense = to_dense(m).multiply(x.to_dense());
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(y.get(i), y_dense[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(SparseMatrixTest, Rank1UpdateMatchesDense) {
  SparseMatrix m(5, 1.0);
  SparseVector u(5), v(5);
  u.set(0, 1.0);
  u.set(2, 2.0);
  v.set(2, 3.0);
  v.set(4, -1.0);
  DenseMatrix reference = to_dense(m);
  reference.rank1_update(u.to_dense(), v.to_dense(), -0.5);
  m.rank1_update(u, v, -0.5);
  EXPECT_LT(to_dense(m).max_abs_diff(reference), 1e-12);
}

TEST(SparseMatrixTest, RowColAdjacencyStaysConsistentAfterErase) {
  SparseMatrix m(3);
  m.set(0, 1, 1.0);
  m.set(0, 2, 1.0);
  m.set(0, 1, 0.0);  // erase
  const SparseVector row0 = m.row(0);
  EXPECT_EQ(row0.nnz(), 1u);
  EXPECT_DOUBLE_EQ(row0.get(2), 1.0);
  const SparseVector col1 = m.col(1);
  EXPECT_EQ(col1.nnz(), 0u);
}

TEST(SparseMatrixTest, NnzCountsDiagonalAndOffDiagonal) {
  SparseMatrix m(3, 1.0);
  m.set(1, 1, 0.0);  // zero a diagonal entry
  m.set(0, 2, 4.0);
  EXPECT_EQ(m.nnz(), 3u);  // two diagonal + one off-diagonal
  EXPECT_EQ(m.offdiag_nnz(), 1u);
}

}  // namespace
}  // namespace megh
