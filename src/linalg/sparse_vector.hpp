// Sparse vector with flat sorted struct-of-arrays storage.
//
// Used for Megh's `z` accumulator (z_{t+1} = z_t + φ_{a_t} C_{t+1}, Alg. 1
// line 10), for θ, and as the row/column views of the sparse inverse-operator
// matrix. Entries whose magnitude drops below `kZeroTolerance` are pruned so
// nnz counts (Fig. 7) stay meaningful.
//
// Storage is two parallel arrays (indices ascending, matching values), so the
// hot kernels — axpy, dot, rank-1 factor extraction — are linear merges over
// contiguous memory instead of hash probes. Random-access `set`/`add` remain
// supported (binary search + O(nnz) insert) for checkpoint loading and tests;
// appending in ascending index order is O(1) amortized.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace megh {

/// Magnitude below which an entry counts as (and is stored as) zero — in
/// SparseVector, SparseMatrix and the learner's θ/z accumulators alike.
inline constexpr double kZeroTolerance = 1e-12;

class SparseVector {
 public:
  using Index = std::int64_t;

  SparseVector() = default;
  explicit SparseVector(Index dim) : dim_(dim) {
    MEGH_ASSERT(dim >= 0, "SparseVector dimension must be non-negative");
  }

  Index dim() const { return dim_; }
  std::size_t nnz() const { return idx_.size(); }
  bool empty() const { return idx_.empty(); }

  double get(Index i) const {
    check_index(i);
    const std::size_t pos = find(i);
    return pos == idx_.size() || idx_[pos] != i ? 0.0 : val_[pos];
  }

  /// Set entry i; values under tolerance erase the entry.
  void set(Index i, double v);

  /// entries[i] += v.
  void add(Index i, double v);

  /// Append an entry with index strictly greater than every stored index.
  /// The fast path for building a vector in sorted order (kernels,
  /// checkpoint loads). Values under tolerance are dropped.
  void push_back(Index i, double v) {
    check_index(i);
    MEGH_ASSERT(idx_.empty() || i > idx_.back(),
                "SparseVector::push_back indices must be strictly ascending");
    if (v < kZeroTolerance && v > -kZeroTolerance) return;
    idx_.push_back(i);
    val_.push_back(v);
  }

  void reserve(std::size_t n) {
    idx_.reserve(n);
    val_.reserve(n);
  }

  /// *this += scale * other (single backward in-place merge).
  void axpy(double scale, const SparseVector& other);

  /// Scale all entries.
  void scale(double s);

  void clear() {
    idx_.clear();
    val_.clear();
  }

  /// Dot with another sparse vector (two-pointer merge over sorted spans).
  double dot(const SparseVector& other) const;

  /// Dot with a dense vector of matching dimension.
  double dot(std::span<const double> dense) const;

  /// Materialize as dense (for tests / small dims).
  std::vector<double> to_dense() const;

  /// Flat views of the sorted storage (ascending indices).
  std::span<const Index> indices() const { return idx_; }
  std::span<const double> values() const { return val_; }

  /// Ordered iteration over (index, value) pairs — drop-in replacement for
  /// the old hash-map `entries()` (structured bindings keep working), but
  /// now in ascending index order.
  class EntryIterator {
   public:
    EntryIterator(const SparseVector* v, std::size_t pos) : v_(v), pos_(pos) {}
    std::pair<Index, double> operator*() const {
      return {v_->idx_[pos_], v_->val_[pos_]};
    }
    EntryIterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const EntryIterator& o) const { return pos_ != o.pos_; }

   private:
    const SparseVector* v_;
    std::size_t pos_;
  };
  class EntryRange {
   public:
    explicit EntryRange(const SparseVector* v) : v_(v) {}
    EntryIterator begin() const { return {v_, 0}; }
    EntryIterator end() const { return {v_, v_->idx_.size()}; }

   private:
    const SparseVector* v_;
  };
  EntryRange entries() const { return EntryRange(this); }

 private:
  void check_index(Index i) const {
    MEGH_ASSERT(i >= 0 && (dim_ == 0 || i < dim_),
                "SparseVector index out of range");
  }

  /// Position of the first stored index >= i (== nnz() if none).
  std::size_t find(Index i) const;

  /// Drop entries whose magnitude fell below tolerance (stable compaction).
  void prune_zeros();

  Index dim_ = 0;  // 0 means "unbounded" (dimension checks disabled)
  std::vector<Index> idx_;  // ascending
  std::vector<double> val_;  // parallel to idx_
};

}  // namespace megh
