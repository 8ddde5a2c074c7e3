#include "oracle/dense_matrix.hpp"

#include <cmath>

namespace megh {

DenseMatrix::DenseMatrix(std::int64_t rows, std::int64_t cols, double fill)
    : rows_(rows), cols_(cols) {
  MEGH_ASSERT(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
  data_.assign(static_cast<std::size_t>(rows * cols), fill);
}

DenseMatrix DenseMatrix::identity(std::int64_t n, double scale) {
  DenseMatrix m(n, n, 0.0);
  for (std::int64_t i = 0; i < n; ++i) m.at(i, i) = scale;
  return m;
}

std::vector<double> DenseMatrix::multiply(std::span<const double> x) const {
  MEGH_ASSERT(static_cast<std::int64_t>(x.size()) == cols_,
              "mat-vec dimension mismatch");
  std::vector<double> y(static_cast<std::size_t>(rows_), 0.0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    const double* row_ptr = data_.data() + static_cast<std::size_t>(r * cols_);
    for (std::int64_t c = 0; c < cols_; ++c) {
      sum += row_ptr[c] * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
  return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  MEGH_ASSERT(cols_ == other.rows_, "mat-mat dimension mismatch");
  DenseMatrix out(rows_, other.cols_, 0.0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = 0; k < cols_; ++k) {
      const double a = at(r, k);
      if (a == 0.0) continue;
      for (std::int64_t c = 0; c < other.cols_; ++c) {
        out.at(r, c) += a * other.at(k, c);
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::inverse() const {
  MEGH_ASSERT(rows_ == cols_, "inverse requires a square matrix");
  const std::int64_t n = rows_;
  DenseMatrix a = *this;
  DenseMatrix inv = identity(n);
  for (std::int64_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest magnitude pivot in this column.
    std::int64_t pivot = col;
    double best = std::abs(a.at(col, col));
    for (std::int64_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a.at(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      throw Error("DenseMatrix::inverse: matrix is singular");
    }
    if (pivot != col) {
      for (std::int64_t c = 0; c < n; ++c) {
        std::swap(a.at(col, c), a.at(pivot, c));
        std::swap(inv.at(col, c), inv.at(pivot, c));
      }
    }
    const double d = a.at(col, col);
    for (std::int64_t c = 0; c < n; ++c) {
      a.at(col, c) /= d;
      inv.at(col, c) /= d;
    }
    for (std::int64_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = a.at(r, col);
      if (f == 0.0) continue;
      for (std::int64_t c = 0; c < n; ++c) {
        a.at(r, c) -= f * a.at(col, c);
        inv.at(r, c) -= f * inv.at(col, c);
      }
    }
  }
  return inv;
}

void DenseMatrix::rank1_update(std::span<const double> u,
                               std::span<const double> v, double scale) {
  MEGH_ASSERT(static_cast<std::int64_t>(u.size()) == rows_ &&
                  static_cast<std::int64_t>(v.size()) == cols_,
              "rank1_update dimension mismatch");
  for (std::int64_t r = 0; r < rows_; ++r) {
    const double ur = u[static_cast<std::size_t>(r)] * scale;
    if (ur == 0.0) continue;
    double* row_ptr = data_.data() + static_cast<std::size_t>(r * cols_);
    for (std::int64_t c = 0; c < cols_; ++c) {
      row_ptr[c] += ur * v[static_cast<std::size_t>(c)];
    }
  }
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  MEGH_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

DenseMatrix to_dense(const SparseMatrix& m) {
  DenseMatrix out(m.dim(), m.dim(), 0.0);
  for (SparseMatrix::Index r = 0; r < m.dim(); ++r) {
    const SparseVector row = m.row(r);
    for (const auto& [c, v] : row.entries()) out.at(r, c) = v;
    out.at(r, r) = m.get(r, r);  // stored even below the zero tolerance
  }
  return out;
}

}  // namespace megh
