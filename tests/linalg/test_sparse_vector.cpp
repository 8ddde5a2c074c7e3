#include "linalg/sparse_vector.hpp"

#include <gtest/gtest.h>

namespace megh {
namespace {

TEST(SparseVectorTest, SetGetAndPrune) {
  SparseVector v(10);
  v.set(3, 2.5);
  EXPECT_DOUBLE_EQ(v.get(3), 2.5);
  EXPECT_DOUBLE_EQ(v.get(4), 0.0);
  EXPECT_EQ(v.nnz(), 1u);
  v.set(3, 0.0);
  EXPECT_EQ(v.nnz(), 0u);
}

TEST(SparseVectorTest, AddAccumulatesAndCancels) {
  SparseVector v(10);
  v.add(1, 1.0);
  v.add(1, 2.0);
  EXPECT_DOUBLE_EQ(v.get(1), 3.0);
  v.add(1, -3.0);
  EXPECT_EQ(v.nnz(), 0u);  // exact cancellation pruned
}

TEST(SparseVectorTest, TinyValuesTreatedAsZero) {
  SparseVector v(10);
  v.set(0, 1e-15);
  EXPECT_EQ(v.nnz(), 0u);
}

TEST(SparseVectorTest, AxpyMergesSupports) {
  SparseVector a(5), b(5);
  a.set(0, 1.0);
  a.set(2, 2.0);
  b.set(2, 3.0);
  b.set(4, 4.0);
  a.axpy(2.0, b);
  EXPECT_DOUBLE_EQ(a.get(0), 1.0);
  EXPECT_DOUBLE_EQ(a.get(2), 8.0);
  EXPECT_DOUBLE_EQ(a.get(4), 8.0);
  EXPECT_EQ(a.nnz(), 3u);
}

TEST(SparseVectorTest, MergesAgreeWithDenseAtEveryBoundary) {
  // One side's support is {2, 4, 6, 8}; the other side's single key walks
  // every position — before, on, between and past the end of it — so each
  // merge run ends at every possible bound.
  const std::int64_t dim = 12;
  SparseVector base(dim);
  for (const std::int64_t i : {2, 4, 6, 8}) {
    base.push_back(i, static_cast<double>(i));
  }
  for (std::int64_t k = 0; k < dim; ++k) {
    SparseVector probe(dim);
    probe.push_back(k, 0.5);
    EXPECT_EQ(base.dot(probe), base.get(k) * 0.5) << "k=" << k;
    EXPECT_EQ(probe.dot(base), base.dot(probe)) << "k=" << k;

    SparseVector sum = base;
    sum.axpy(2.0, probe);
    SparseVector rev = probe;
    rev.axpy(1.0, base);
    for (std::int64_t i = 0; i < dim; ++i) {
      EXPECT_EQ(sum.get(i), base.get(i) + (i == k ? 1.0 : 0.0))
          << "k=" << k << " i=" << i;
      EXPECT_EQ(rev.get(i), base.get(i) + (i == k ? 0.5 : 0.0))
          << "k=" << k << " i=" << i;
    }
    EXPECT_EQ(sum.nnz(), base.nnz() + (base.get(k) == 0.0 ? 1u : 0u));
  }
}

TEST(SparseVectorTest, DotSparseSparse) {
  SparseVector a(6), b(6);
  a.set(1, 2.0);
  a.set(3, -1.0);
  b.set(3, 4.0);
  b.set(5, 9.0);
  EXPECT_DOUBLE_EQ(a.dot(b), -4.0);
  EXPECT_DOUBLE_EQ(b.dot(a), -4.0);
}

TEST(SparseVectorTest, DotDense) {
  SparseVector a(3);
  a.set(0, 1.0);
  a.set(2, 3.0);
  const std::vector<double> dense{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(a.dot(dense), 100.0);
}

TEST(SparseVectorTest, ScaleAndClear) {
  SparseVector v(4);
  v.set(1, 2.0);
  v.scale(0.5);
  EXPECT_DOUBLE_EQ(v.get(1), 1.0);
  v.scale(0.0);
  EXPECT_EQ(v.nnz(), 0u);
}

TEST(SparseVectorTest, ToDenseMatchesEntries) {
  SparseVector v(4);
  v.set(0, 1.0);
  v.set(3, -2.0);
  const auto dense = v.to_dense();
  ASSERT_EQ(dense.size(), 4u);
  EXPECT_DOUBLE_EQ(dense[0], 1.0);
  EXPECT_DOUBLE_EQ(dense[1], 0.0);
  EXPECT_DOUBLE_EQ(dense[3], -2.0);
}

}  // namespace
}  // namespace megh
