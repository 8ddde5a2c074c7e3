// Sparse square matrix stored as flat CSR-like rows with the diagonal
// packed into each row's header.
//
// This layout is exactly what Megh's inverse transition operator
// B = T⁻¹ needs (Sec. 5.2 of the paper): B starts as δ⁻¹·I — pure diagonal —
// and every Sherman–Morrison step adds a rank-1 term whose factors are unit
// basis vectors, touching only a handful of rows/columns. Each row is one
// header (dense diagonal value + the off-diagonal entry vector); off-diagonal
// entries live in one contiguous array sorted by column, so a rank-1 update
// is a linear merge per touched row (no hash probes, no ordered-set
// bookkeeping) and row extraction is a contiguous copy. A per-column sorted
// list of row indices (values stay row-owned) keeps column extraction
// O(nnz(col) · log nnz(row)).
//
// Row headers materialize lazily and live compacted: the only d-sized
// structure is a lazily-zeroed int32 slot map (0 = virgin row), and
// materialized rows pack densely in materialization order. A virgin row
// reads as `default_diag`·I with no off-diagonals — exactly B₀ — so
// building a d ~ 10⁶ operator is O(1) work, and the resident footprint is
// O(support): the live rows fit in cache while the untouched map reads off
// the kernel's shared zero page. That is the learn-as-you-go contract end
// to end: the model's footprint (Fig. 7) grows with what was learned,
// never with the action-space dimension.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/zero_lazy_buffer.hpp"
#include "linalg/sparse_vector.hpp"

namespace megh {

class SparseMatrix {
 public:
  using Index = std::int64_t;

  /// One off-diagonal row entry; rows are sorted by `col`.
  struct Entry {
    Index col;
    double val;
  };

  SparseMatrix() = default;

  /// n×n matrix initialized to `diag_value`·I. O(1): no row is
  /// materialized until first written.
  explicit SparseMatrix(Index n, double diag_value = 0.0);

  SparseMatrix(const SparseMatrix& other);
  SparseMatrix& operator=(const SparseMatrix& other);
  SparseMatrix(SparseMatrix&&) noexcept = default;
  SparseMatrix& operator=(SparseMatrix&&) noexcept = default;
  ~SparseMatrix() = default;

  Index dim() const { return n_; }

  double get(Index r, Index c) const;
  void set(Index r, Index c, double v);
  void add(Index r, Index c, double v);

  /// Number of stored nonzero entries (diagonal + off-diagonal).
  std::size_t nnz() const;

  /// Number of stored off-diagonal nonzeros.
  std::size_t offdiag_nnz() const { return offdiag_nnz_; }

  /// Number of rows ever written (the materialized support).
  Index live_rows() const { return static_cast<Index>(rows_.size()); }

  /// The diagonal value virgin rows read as (B₀'s 1/δ). Checkpointing a
  /// cluster-scale operator stores only materialized rows against this
  /// default instead of d dense diagonal lines.
  double default_diag() const { return default_diag_; }

  /// Indices of every materialized row, ascending — the deterministic
  /// iteration order checkpoint writers need (materialization order is a
  /// run artifact).
  std::vector<Index> live_row_indices() const {
    std::vector<Index> out(index_of_slot_);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Extract row r / column c as a sparse vector.
  SparseVector row(Index r) const;
  SparseVector col(Index c) const;

  /// Allocation-free extraction into a caller-owned scratch vector
  /// (cleared first). The fused LSPI kernel reuses the same scratch
  /// buffers across every update.
  void row_into(Index r, SparseVector& out) const;
  void col_into(Index c, SparseVector& out) const;

  /// y = M x for sparse x (cost: sum over x's nonzeros of column nnz).
  SparseVector multiply(const SparseVector& x) const;

  /// M += scale * u vᵀ for sparse u, v: one sorted merge per row in
  /// supp(u), O(nnz(row) + nnz(v)) amortized per row.
  void rank1_update(const SparseVector& u, const SparseVector& v,
                    double scale);

 private:
  void check(Index r, Index c) const {
    MEGH_ASSERT(r >= 0 && r < n_ && c >= 0 && c < n_,
                "SparseMatrix index out of range");
  }

  void set_off(Index r, Index c, double v);

  /// rows_[r] += coef · v, skipping v's entry at column r (diagonal handled
  /// by the caller). Maintains col_rows_ and offdiag_nnz_.
  void merge_into_row(Index r, double coef, const SparseVector& v);

  void register_col(Index c, Index r);
  void unregister_col(Index c, Index r);

  /// Per-index storage record: the dense diagonal value, the row's
  /// off-diagonal entries, and the column's adjacency all ride in one
  /// 64-byte cache-line-aligned header, so everything the unit-update
  /// kernel needs about index i (B[i][i], row i, which rows hold column i)
  /// is one random load.
  struct alignas(64) Row {
    double diag = 0.0;
    std::vector<Entry> entries;  // off-diagonal row entries, sorted by col
    std::vector<Index> cols;     // sorted rows with an entry in this column
  };

  bool is_live(Index r) const {
    return slot_of_[static_cast<std::size_t>(r)] != 0;
  }

  /// Materialize-on-write: the first write to row r appends a
  /// `default_diag_`·I header to the compact row array and records its
  /// slot. May grow rows_ — callers must not hold row references across a
  /// touch of a different index (re-resolve, or pre-touch first).
  Row& touch(Index r);

  // Read-side views; a virgin row reads as default_diag_·I without being
  // materialized.
  double diag_of(Index r) const {
    const std::int32_t s = slot_of_[static_cast<std::size_t>(r)];
    return s != 0 ? rows_[static_cast<std::size_t>(s - 1)].diag
                  : default_diag_;
  }
  std::span<const Entry> entries_of(Index r) const {
    const std::int32_t s = slot_of_[static_cast<std::size_t>(r)];
    if (s == 0) return {};
    const auto& e = rows_[static_cast<std::size_t>(s - 1)].entries;
    return {e.data(), e.size()};
  }
  std::span<const Index> cols_of(Index r) const {
    const std::int32_t s = slot_of_[static_cast<std::size_t>(r)];
    if (s == 0) return {};
    const auto& c = rows_[static_cast<std::size_t>(s - 1)].cols;
    return {c.data(), c.size()};
  }

  /// Call f(index, row) for every materialized row (materialization
  /// order, not index order).
  template <typename F>
  void for_each_live(F&& f) const {
    for (std::size_t s = 0; s < rows_.size(); ++s) {
      f(index_of_slot_[s], rows_[s]);
    }
  }

  Index n_ = 0;
  double default_diag_ = 0.0;
  // The only d-sized structure: index → 1 + slot in rows_, 0 = virgin.
  // Lazily zeroed — untouched ranges read off the shared zero page.
  ZeroLazyBuffer<std::int32_t> slot_of_;
  std::vector<Row> rows_;             // materialization order
  std::vector<Index> index_of_slot_; // slot → matrix index (reverse map)
  std::size_t offdiag_nnz_ = 0;
  std::vector<Entry> scratch_row_;  // merge workspace (avoids realloc)
};

}  // namespace megh
