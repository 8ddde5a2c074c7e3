#include "oracle/sherman_morrison.hpp"

#include <cmath>
#include <vector>

namespace megh {

namespace {
constexpr double kSingularTolerance = 1e-12;
}

bool sherman_morrison_update(DenseMatrix& B, std::span<const double> u,
                             std::span<const double> v) {
  const std::int64_t n = B.rows();
  MEGH_ASSERT(B.cols() == n, "sherman_morrison_update needs a square matrix");
  MEGH_ASSERT(static_cast<std::int64_t>(u.size()) == n &&
                  static_cast<std::int64_t>(v.size()) == n,
              "sherman_morrison_update dimension mismatch");
  const std::vector<double> bu = B.multiply(u);
  // vtB[c] = Σ_r v[r] B[r][c]
  std::vector<double> vtB(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t r = 0; r < n; ++r) {
    const double vr = v[static_cast<std::size_t>(r)];
    if (vr == 0.0) continue;
    const auto row = B.row(r);
    for (std::int64_t c = 0; c < n; ++c) {
      vtB[static_cast<std::size_t>(c)] += vr * row[static_cast<std::size_t>(c)];
    }
  }
  double vBu = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    vBu += v[static_cast<std::size_t>(i)] * bu[static_cast<std::size_t>(i)];
  }
  const double denom = 1.0 + vBu;
  if (std::abs(denom) < kSingularTolerance) return false;
  B.rank1_update(bu, vtB, -1.0 / denom);
  return true;
}

bool sherman_morrison_update(SparseMatrix& B, const SparseVector& u,
                             const SparseVector& v) {
  // Bu: combine columns of B selected by u's nonzeros.
  SparseVector bu(B.dim());
  SparseVector scratch(B.dim());
  for (const auto& [c, uv] : u.entries()) {
    B.col_into(c, scratch);
    bu.axpy(uv, scratch);
  }
  // vᵀB: combine rows of B selected by v's nonzeros.
  SparseVector vtB(B.dim());
  for (const auto& [r, vv] : v.entries()) {
    B.row_into(r, scratch);
    vtB.axpy(vv, scratch);
  }
  const double denom = 1.0 + v.dot(bu);
  if (std::abs(denom) < kSingularTolerance) return false;
  B.rank1_update(bu, vtB, -1.0 / denom);
  return true;
}

}  // namespace megh
