#include "linalg/sparse_vector.hpp"

#include <algorithm>
#include <cmath>

namespace megh {

std::size_t SparseVector::find(Index i) const {
  // Hot paths touch the tail (ascending builders, z.add on recent actions);
  // check it before the binary search.
  if (idx_.empty() || idx_.back() < i) return idx_.size();
  return static_cast<std::size_t>(
      std::lower_bound(idx_.begin(), idx_.end(), i) - idx_.begin());
}

void SparseVector::set(Index i, double v) {
  check_index(i);
  const std::size_t pos = find(i);
  const bool present = pos < idx_.size() && idx_[pos] == i;
  if (std::abs(v) < kZeroTolerance) {
    if (present) {
      idx_.erase(idx_.begin() + static_cast<std::ptrdiff_t>(pos));
      val_.erase(val_.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    return;
  }
  if (present) {
    val_[pos] = v;
  } else {
    idx_.insert(idx_.begin() + static_cast<std::ptrdiff_t>(pos), i);
    val_.insert(val_.begin() + static_cast<std::ptrdiff_t>(pos), v);
  }
}

void SparseVector::add(Index i, double v) {
  check_index(i);
  const std::size_t pos = find(i);
  const bool present = pos < idx_.size() && idx_[pos] == i;
  if (!present) {
    if (std::abs(v) >= kZeroTolerance) {
      idx_.insert(idx_.begin() + static_cast<std::ptrdiff_t>(pos), i);
      val_.insert(val_.begin() + static_cast<std::ptrdiff_t>(pos), v);
    }
    return;
  }
  val_[pos] += v;
  if (std::abs(val_[pos]) < kZeroTolerance) {
    idx_.erase(idx_.begin() + static_cast<std::ptrdiff_t>(pos));
    val_.erase(val_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

void SparseVector::axpy(double scale, const SparseVector& other) {
  if (scale == 0.0 || other.empty()) return;
  if (empty()) {
    idx_ = other.idx_;
    val_.resize(other.val_.size());
    for (std::size_t k = 0; k < val_.size(); ++k) {
      val_[k] = scale * other.val_[k];
    }
    // Scaling cannot push a magnitude below tolerance unless |scale| < 1;
    // prune in that case to keep the no-near-zero invariant.
    if (std::abs(scale) < 1.0) prune_zeros();
    return;
  }
  // Forward merge into scratch. Only the exact-match sums need an inline
  // near-zero check; copied entries keep the >= tolerance invariant, and a
  // |scale| < 1 pass can leave sub-tolerance scaled copies, pruned at the
  // end.
  const std::size_t n1 = idx_.size();
  const std::size_t n2 = other.idx_.size();
  static thread_local std::vector<Index> merged_idx;
  static thread_local std::vector<double> merged_val;
  merged_idx.clear();
  merged_val.clear();
  merged_idx.reserve(n1 + n2);
  merged_val.reserve(n1 + n2);
  std::size_t i = 0, j = 0;
  while (i < n1 || j < n2) {
    if (j == n2 || (i < n1 && idx_[i] < other.idx_[j])) {
      merged_idx.push_back(idx_[i]);
      merged_val.push_back(val_[i]);
      ++i;
    } else if (i < n1 && idx_[i] == other.idx_[j]) {
      const double nv = val_[i] + scale * other.val_[j];
      if (std::abs(nv) >= kZeroTolerance) {
        merged_idx.push_back(idx_[i]);
        merged_val.push_back(nv);
      }
      ++i;
      ++j;
    } else {
      merged_idx.push_back(other.idx_[j]);
      merged_val.push_back(scale * other.val_[j]);
      ++j;
    }
  }
  // Copy back instead of swapping so the thread-local scratch keeps its
  // high-water capacity and the steady state allocates nothing.
  idx_.assign(merged_idx.begin(), merged_idx.end());
  val_.assign(merged_val.begin(), merged_val.end());
  if (std::abs(scale) < 1.0) prune_zeros();
}

void SparseVector::scale(double s) {
  if (s == 0.0) {
    clear();
    return;
  }
  for (double& v : val_) v *= s;
  if (std::abs(s) < 1.0) prune_zeros();
}

void SparseVector::prune_zeros() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < idx_.size(); ++r) {
    if (std::abs(val_[r]) < kZeroTolerance) continue;
    idx_[w] = idx_[r];
    val_[w] = val_[r];
    ++w;
  }
  idx_.resize(w);
  val_.resize(w);
}

double SparseVector::dot(const SparseVector& other) const {
  // Two-pointer merge; matches accumulate in ascending index order.
  double sum = 0.0;
  std::size_t i = 0, j = 0;
  while (i < idx_.size() && j < other.idx_.size()) {
    if (idx_[i] == other.idx_[j]) {
      sum += val_[i] * other.val_[j];
      ++i;
      ++j;
    } else if (idx_[i] < other.idx_[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return sum;
}

double SparseVector::dot(std::span<const double> dense) const {
  double sum = 0.0;
  for (std::size_t k = 0; k < idx_.size(); ++k) {
    const auto i = static_cast<std::size_t>(idx_[k]);
    MEGH_ASSERT(i < dense.size(), "sparse/dense dot dimension mismatch");
    sum += val_[k] * dense[i];
  }
  return sum;
}

std::vector<double> SparseVector::to_dense() const {
  MEGH_ASSERT(dim_ > 0, "to_dense needs a bounded dimension");
  std::vector<double> out(static_cast<std::size_t>(dim_), 0.0);
  for (std::size_t k = 0; k < idx_.size(); ++k) {
    out[static_cast<std::size_t>(idx_[k])] = val_[k];
  }
  return out;
}

}  // namespace megh
