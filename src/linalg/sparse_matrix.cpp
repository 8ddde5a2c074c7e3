#include "linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace megh {

namespace {

/// First position in `row` with col >= c.
std::size_t row_find(std::span<const SparseMatrix::Entry> row,
                     SparseMatrix::Index c) {
  return static_cast<std::size_t>(
      std::lower_bound(row.begin(), row.end(), c,
                       [](const SparseMatrix::Entry& e,
                          SparseMatrix::Index key) { return e.col < key; }) -
      row.begin());
}

}  // namespace

SparseMatrix::SparseMatrix(Index n, double diag_value)
    : n_(n), default_diag_(diag_value) {
  MEGH_ASSERT(n >= 0, "SparseMatrix dimension must be non-negative");
  if (n_ > 0) {
    slot_of_ = ZeroLazyBuffer<std::int32_t>(static_cast<std::size_t>(n_));
  }
}

SparseMatrix::SparseMatrix(const SparseMatrix& other)
    : n_(other.n_),
      default_diag_(other.default_diag_),
      rows_(other.rows_),
      index_of_slot_(other.index_of_slot_),
      offdiag_nnz_(other.offdiag_nnz_) {
  if (n_ > 0) {
    // Rebuild the lazy map entry by entry instead of copying the d-sized
    // buffer wholesale: only the live rows' map pages commit.
    slot_of_ = ZeroLazyBuffer<std::int32_t>(static_cast<std::size_t>(n_));
    for (std::size_t s = 0; s < index_of_slot_.size(); ++s) {
      slot_of_[static_cast<std::size_t>(index_of_slot_[s])] =
          static_cast<std::int32_t>(s + 1);
    }
  }
}

SparseMatrix& SparseMatrix::operator=(const SparseMatrix& other) {
  if (this != &other) {
    SparseMatrix copy(other);
    *this = std::move(copy);
  }
  return *this;
}

SparseMatrix::Row& SparseMatrix::touch(Index r) {
  std::int32_t& s = slot_of_[static_cast<std::size_t>(r)];
  if (s == 0) {
    MEGH_ASSERT(rows_.size() <
                    static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()),
                "SparseMatrix live-row count overflows the slot map");
    rows_.emplace_back();
    rows_.back().diag = default_diag_;
    index_of_slot_.push_back(r);
    s = static_cast<std::int32_t>(rows_.size());
  }
  return rows_[static_cast<std::size_t>(s - 1)];
}

double SparseMatrix::get(Index r, Index c) const {
  check(r, c);
  if (r == c) return diag_of(r);
  const std::span<const Entry> row = entries_of(r);
  const std::size_t pos = row_find(row, c);
  return pos < row.size() && row[pos].col == c ? row[pos].val : 0.0;
}

void SparseMatrix::set(Index r, Index c, double v) {
  check(r, c);
  if (r == c) {
    touch(r).diag = v;
    return;
  }
  set_off(r, c, v);
}

void SparseMatrix::register_col(Index c, Index r) {
  auto& rows = touch(c).cols;
  const auto it = std::lower_bound(rows.begin(), rows.end(), r);
  MEGH_ASSERT(it == rows.end() || *it != r,
              "column adjacency already holds this row");
  rows.insert(it, r);
}

void SparseMatrix::unregister_col(Index c, Index r) {
  // An existing entry implies the column's row was materialized when the
  // entry was registered.
  MEGH_ASSERT(is_live(c), "column adjacency row must be live");
  auto& rows =
      rows_[static_cast<std::size_t>(slot_of_[static_cast<std::size_t>(c)] - 1)]
          .cols;
  const auto it = std::lower_bound(rows.begin(), rows.end(), r);
  MEGH_ASSERT(it != rows.end() && *it == r,
              "column adjacency missing an expected row");
  rows.erase(it);
}

void SparseMatrix::set_off(Index r, Index c, double v) {
  const std::span<const Entry> view = entries_of(r);
  const std::size_t pos = row_find(view, c);
  const bool present = pos < view.size() && view[pos].col == c;
  if (std::abs(v) < kZeroTolerance) {
    if (present) {
      // A present entry implies row r is live; resolve its slot directly.
      auto& row =
          rows_[static_cast<std::size_t>(
                    slot_of_[static_cast<std::size_t>(r)] - 1)]
              .entries;
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(pos));
      unregister_col(c, r);
      --offdiag_nnz_;
    }
    return;
  }
  if (present) {
    rows_[static_cast<std::size_t>(slot_of_[static_cast<std::size_t>(r)] - 1)]
        .entries[pos]
        .val = v;
  } else {
    auto& row = touch(r).entries;
    row.insert(row.begin() + static_cast<std::ptrdiff_t>(pos), Entry{c, v});
    register_col(c, r);
    ++offdiag_nnz_;
  }
}

void SparseMatrix::add(Index r, Index c, double v) {
  if (v == 0.0) return;
  set(r, c, get(r, c) + v);
}

std::size_t SparseMatrix::nnz() const {
  std::size_t count = offdiag_nnz_;
  for_each_live([&](Index, const Row& row) {
    if (std::abs(row.diag) >= kZeroTolerance) ++count;
  });
  if (std::abs(default_diag_) >= kZeroTolerance) {
    count += static_cast<std::size_t>(n_) - rows_.size();
  }
  return count;
}

void SparseMatrix::row_into(Index r, SparseVector& out) const {
  MEGH_ASSERT(r >= 0 && r < n_, "row index out of range");
  out.clear();
  const std::span<const Entry> row = entries_of(r);
  out.reserve(row.size() + 1);
  const double d = diag_of(r);
  const bool has_diag = std::abs(d) >= kZeroTolerance;
  bool diag_emitted = !has_diag;
  for (const Entry& e : row) {
    if (!diag_emitted && r < e.col) {
      out.push_back(r, d);
      diag_emitted = true;
    }
    out.push_back(e.col, e.val);
  }
  if (!diag_emitted) out.push_back(r, d);
}

void SparseMatrix::col_into(Index c, SparseVector& out) const {
  MEGH_ASSERT(c >= 0 && c < n_, "col index out of range");
  out.clear();
  const std::span<const Index> rows = cols_of(c);
  out.reserve(rows.size() + 1);
  const double d = diag_of(c);
  const bool has_diag = std::abs(d) >= kZeroTolerance;
  bool diag_emitted = !has_diag;
  for (const Index r : rows) {
    if (!diag_emitted && c < r) {
      out.push_back(c, d);
      diag_emitted = true;
    }
    const std::span<const Entry> row = entries_of(r);
    const std::size_t pos = row_find(row, c);
    MEGH_ASSERT(pos < row.size() && row[pos].col == c,
                "column adjacency points at a missing row entry");
    out.push_back(r, row[pos].val);
  }
  if (!diag_emitted) out.push_back(c, d);
}

SparseVector SparseMatrix::row(Index r) const {
  SparseVector out(n_);
  row_into(r, out);
  return out;
}

SparseVector SparseMatrix::col(Index c) const {
  SparseVector out(n_);
  col_into(c, out);
  return out;
}

SparseVector SparseMatrix::multiply(const SparseVector& x) const {
  SparseVector y(n_);
  for (const auto& [c, xv] : x.entries()) {
    MEGH_ASSERT(c >= 0 && c < n_, "multiply: x index out of range");
    const double d = diag_of(c);
    if (std::abs(d) >= kZeroTolerance) y.add(c, d * xv);
    for (const Index r : cols_of(c)) {
      const std::span<const Entry> row = entries_of(r);
      const std::size_t pos = row_find(row, c);
      MEGH_ASSERT(pos < row.size() && row[pos].col == c,
                  "column adjacency points at a missing row entry");
      y.add(r, row[pos].val * xv);
    }
  }
  return y;
}

void SparseMatrix::merge_into_row(Index r, double coef,
                                  const SparseVector& v) {
  const std::span<const Index> vidx = v.indices();
  const std::span<const double> vval = v.values();
  // Pre-materialize every row this merge can touch — r itself plus the
  // column headers of v's support (register_col touches them) — before
  // taking a reference: touch() may grow the compact row array and would
  // invalidate it mid-merge.
  touch(r);
  for (std::size_t k = 0; k < vidx.size(); ++k) {
    if (vidx[k] != r) touch(vidx[k]);
  }
  auto& row = touch(r).entries;

  scratch_row_.clear();
  scratch_row_.reserve(row.size() + vidx.size());
  std::size_t i = 0, j = 0;
  while (i < row.size() || j < vidx.size()) {
    // Skip v's diagonal entry; the caller folds it into diag_.
    if (j < vidx.size() && vidx[j] == r) {
      ++j;
      continue;
    }
    if (j >= vidx.size()) {
      // v exhausted: the rest of the row copies verbatim.
      scratch_row_.insert(scratch_row_.end(),
                          row.begin() + static_cast<std::ptrdiff_t>(i),
                          row.end());
      break;
    }
    if (i < row.size() && row[i].col < vidx[j]) {
      scratch_row_.push_back(row[i]);  // untouched existing entry
      ++i;
    } else if (i < row.size() && row[i].col == vidx[j]) {
      const double nv = row[i].val + coef * vval[j];
      if (std::abs(nv) < kZeroTolerance) {
        unregister_col(row[i].col, r);
        --offdiag_nnz_;
      } else {
        scratch_row_.push_back(Entry{row[i].col, nv});
      }
      ++i;
      ++j;
    } else {
      const double nv = coef * vval[j];
      if (std::abs(nv) >= kZeroTolerance) {
        scratch_row_.push_back(Entry{vidx[j], nv});
        register_col(vidx[j], r);
        ++offdiag_nnz_;
      }
      ++j;
    }
  }
  // Copy back instead of swapping buffers: scratch_row_'s capacity then
  // grows monotonically to the largest row ever merged and each row keeps
  // its own right-sized buffer, so the steady state allocates nothing
  // (a swap would ping-pong heterogeneous capacities and realloc per call).
  row.assign(scratch_row_.begin(), scratch_row_.end());
}

void SparseMatrix::rank1_update(const SparseVector& u, const SparseVector& v,
                                double scale) {
  if (scale == 0.0) return;
  const std::span<const Index> uidx = u.indices();
  const std::span<const double> uval = u.values();
  for (std::size_t k = 0; k < uidx.size(); ++k) {
    const Index r = uidx[k];
    check(r, r);
    const double coef = scale * uval[k];
    if (coef == 0.0) continue;
    touch(r).diag += coef * v.get(r);
    merge_into_row(r, coef, v);
  }
}

}  // namespace megh
