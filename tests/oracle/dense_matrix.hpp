// Dense row-major matrix: the test oracle that the sparse kernels are
// checked against on small dimensions. Megh itself never materializes a
// dense d×d matrix, so this lives with the tests, not in megh_linalg.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "linalg/sparse_matrix.hpp"

namespace megh {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::int64_t rows, std::int64_t cols, double fill = 0.0);

  static DenseMatrix identity(std::int64_t n, double scale = 1.0);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  double& at(std::int64_t r, std::int64_t c) {
    check(r, c);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  double at(std::int64_t r, std::int64_t c) const {
    check(r, c);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  std::span<const double> row(std::int64_t r) const {
    MEGH_ASSERT(r >= 0 && r < rows_, "row index out of range");
    return {data_.data() + static_cast<std::size_t>(r * cols_),
            static_cast<std::size_t>(cols_)};
  }

  /// Matrix-vector product.
  std::vector<double> multiply(std::span<const double> x) const;

  /// Matrix-matrix product.
  DenseMatrix multiply(const DenseMatrix& other) const;

  /// Gauss-Jordan inverse with partial pivoting. Throws Error if singular.
  DenseMatrix inverse() const;

  /// B += scale * u vᵀ (rank-1 update).
  void rank1_update(std::span<const double> u, std::span<const double> v,
                    double scale);

  /// max |a_ij - b_ij|; matrices must have equal shape.
  double max_abs_diff(const DenseMatrix& other) const;

  std::span<const double> data() const { return data_; }

 private:
  void check(std::int64_t r, std::int64_t c) const {
    MEGH_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "DenseMatrix index out of range");
  }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<double> data_;
};

/// Materialize a sparse matrix densely (small dimensions only).
DenseMatrix to_dense(const SparseMatrix& m);

}  // namespace megh
