// Property tests: the flat sparse kernels must agree with dense linear
// algebra on randomized inputs. The dense implementations are the
// reference; the sparse ones are the production hot path, so every
// structural trick in them (sorted merges, diagonal-in-header storage,
// column adjacency, sub-tolerance pruning) is checked here against
// straight-line arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "oracle/dense_matrix.hpp"
#include "oracle/sherman_morrison.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/sparse_vector.hpp"

namespace megh {
namespace {

constexpr double kTol = 1e-9;

SparseVector random_sparse(Rng& rng, std::int64_t dim, int max_nnz) {
  SparseVector v(dim);
  const int nnz = 1 + static_cast<int>(rng.index(
                          static_cast<std::size_t>(max_nnz)));
  for (int k = 0; k < nnz; ++k) {
    v.set(static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(dim))),
          rng.normal(0.0, 1.0));
  }
  return v;
}

void expect_matches_dense(const SparseMatrix& sparse,
                          const DenseMatrix& dense) {
  for (std::int64_t r = 0; r < sparse.dim(); ++r) {
    for (std::int64_t c = 0; c < sparse.dim(); ++c) {
      EXPECT_NEAR(sparse.get(r, c), dense.at(r, c), kTol)
          << "at (" << r << ", " << c << ")";
    }
  }
}

TEST(SparseKernelProperty, AxpyAndDotMatchDenseArithmetic) {
  const std::int64_t dim = 64;
  for (unsigned seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    SparseVector x = random_sparse(rng, dim, 12);
    const SparseVector y = random_sparse(rng, dim, 12);
    const double alpha = rng.normal(0.0, 2.0);

    std::vector<double> x_ref = x.to_dense();
    const std::vector<double> y_ref = y.to_dense();
    double dot_ref = 0.0;
    for (std::int64_t i = 0; i < dim; ++i) {
      dot_ref += x_ref[static_cast<std::size_t>(i)] *
                 y_ref[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(x.dot(y), dot_ref, kTol);

    x.axpy(alpha, y);
    for (std::int64_t i = 0; i < dim; ++i) {
      x_ref[static_cast<std::size_t>(i)] +=
          alpha * y_ref[static_cast<std::size_t>(i)];
    }
    for (std::int64_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(x.get(i), x_ref[static_cast<std::size_t>(i)], kTol);
    }
  }
}

TEST(SparseKernelProperty, Rank1UpdateSequenceMatchesDense) {
  const std::int64_t dim = 32;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 7);
    SparseMatrix sparse(dim, 0.5);
    DenseMatrix dense = DenseMatrix::identity(dim, 0.5);
    for (int step = 0; step < 40; ++step) {
      const SparseVector u = random_sparse(rng, dim, 6);
      const SparseVector v = random_sparse(rng, dim, 6);
      const double scale = rng.normal(0.0, 0.3);
      sparse.rank1_update(u, v, scale);
      dense.rank1_update(u.to_dense(), v.to_dense(), scale);
    }
    expect_matches_dense(sparse, dense);
  }
}

TEST(SparseKernelProperty, Rank1RowMergeAtEveryBoundary) {
  // Row 1 holds off-diagonal entries at columns {3, 5, 7}; each update
  // merges v = {k, last} into it for every k, so the run of untouched row
  // entries ends before, on, between and past the end of the row.
  const std::int64_t dim = 10;
  for (std::int64_t k = 0; k < dim; ++k) {
    SparseMatrix sparse(dim, 0.5);
    for (const std::int64_t c : {3, 5, 7}) {
      sparse.set(1, c, static_cast<double>(c));
    }
    DenseMatrix dense = to_dense(sparse);
    SparseVector u(dim);
    u.push_back(1, 1.0);
    SparseVector v(dim);
    v.push_back(k, 0.25);
    if (k < dim - 1) v.push_back(dim - 1, -0.5);
    sparse.rank1_update(u, v, 2.0);
    dense.rank1_update(u.to_dense(), v.to_dense(), 2.0);
    expect_matches_dense(sparse, dense);
  }
}

TEST(SparseKernelProperty, MultiplyMatchesDense) {
  const std::int64_t dim = 48;
  Rng rng(11);
  SparseMatrix m(dim, 1.0 / static_cast<double>(dim));
  for (int k = 0; k < 120; ++k) {
    m.set(static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(dim))),
          static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(dim))),
          rng.normal(0.0, 1.0));
  }
  const DenseMatrix dense = to_dense(m);
  for (unsigned seed = 1; seed <= 4; ++seed) {
    Rng xr(100 + seed);
    const SparseVector x = random_sparse(xr, dim, 10);
    const SparseVector y = m.multiply(x);
    const std::vector<double> x_ref = x.to_dense();
    for (std::int64_t r = 0; r < dim; ++r) {
      double want = 0.0;
      for (std::int64_t c = 0; c < dim; ++c) {
        want += dense.at(r, c) * x_ref[static_cast<std::size_t>(c)];
      }
      EXPECT_NEAR(y.get(r), want, kTol) << "row " << r;
    }
  }
}

TEST(SparseKernelProperty, ShermanMorrisonSequenceMatchesDenseReference) {
  // Long random update sequences through the production sparse overload and
  // the dense reference must stay within 1e-9 elementwise — including
  // updates rejected as singular, which both sides must reject together.
  const std::int64_t dim = 24;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 13);
    SparseMatrix sparse(dim, 1.0 / static_cast<double>(dim));
    DenseMatrix dense = DenseMatrix::identity(dim, 1.0 / static_cast<double>(dim));
    int applied = 0;
    for (int step = 0; step < 60; ++step) {
      const SparseVector u = random_sparse(rng, dim, 4);
      const SparseVector v = random_sparse(rng, dim, 4);
      const bool sparse_ok = sherman_morrison_update(sparse, u, v);
      const bool dense_ok =
          sherman_morrison_update(dense, u.to_dense(), v.to_dense());
      EXPECT_EQ(sparse_ok, dense_ok) << "step " << step;
      if (sparse_ok) ++applied;
    }
    EXPECT_GT(applied, 0);
    expect_matches_dense(sparse, dense);
  }
}

TEST(SparseKernelProperty, ExtractionRoundTripsThroughRank1Fill) {
  // row/col extraction must see exactly the entries rank-1 updates left
  // behind — the column adjacency is bookkeeping that can silently rot.
  const std::int64_t dim = 40;
  Rng rng(29);
  SparseMatrix m(dim, 0.25);
  for (int step = 0; step < 30; ++step) {
    const SparseVector u = random_sparse(rng, dim, 5);
    const SparseVector v = random_sparse(rng, dim, 5);
    m.rank1_update(u, v, rng.normal(0.0, 0.5));
  }
  const DenseMatrix dense = to_dense(m);
  SparseVector scratch(dim);
  for (std::int64_t i = 0; i < dim; ++i) {
    m.row_into(i, scratch);
    for (std::int64_t c = 0; c < dim; ++c) {
      EXPECT_NEAR(scratch.get(c), dense.at(i, c), kTol);
    }
    m.col_into(i, scratch);
    for (std::int64_t r = 0; r < dim; ++r) {
      EXPECT_NEAR(scratch.get(r), dense.at(r, i), kTol);
    }
  }
}

}  // namespace
}  // namespace megh
