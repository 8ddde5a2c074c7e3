// Sherman–Morrison incremental inverse updates.
//
// Paper context (Sec. 5.2, Eq. 11): Megh maintains B = T⁻¹ while the
// transition operator receives rank-1 updates
//     T_{t+1} = T_t + φ_a (φ_a − γ φ_b)ᵀ,
// so the inverse is updated as
//     B_{t+1} = B_t − (B_t φ_a)((φ_a − γ φ_b)ᵀ B_t) / (1 + (φ_a − γ φ_b)ᵀ B_t φ_a),
// reducing the per-step cost from O(d³) (Gauss–Jordan) to, with the sparse
// layout, O(nnz touched).
//
// Test oracles for the learner's fused kernel (core/lspi.cpp), which
// applies this identity for unit factors directly: a dense reference, and
// a general sparse version over SparseMatrix.
#pragma once

#include <span>

#include "linalg/sparse_matrix.hpp"
#include "oracle/dense_matrix.hpp"

namespace megh {

/// Dense reference: B ← B − (B u)(vᵀ B) / (1 + vᵀ B u).
/// Returns false (leaving B untouched) when the denominator is numerically
/// singular (|1 + vᵀBu| < 1e-12), in which case the caller should fall back
/// to a full inverse or skip the update.
bool sherman_morrison_update(DenseMatrix& B, std::span<const double> u,
                             std::span<const double> v);

/// Sparse version; identical contract over SparseMatrix / SparseVector.
bool sherman_morrison_update(SparseMatrix& B, const SparseVector& u,
                             const SparseVector& v);

}  // namespace megh
