#include "core/lspi.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/prefetch.hpp"
#include "telemetry/telemetry.hpp"

namespace megh {

LspiLearner::LspiLearner(std::int64_t dim, double gamma, double delta,
                         int max_update_support)
    : dim_(dim),
      gamma_(gamma),
      max_update_support_(max_update_support),
      fast_path_ok_(max_update_support == 0 || max_update_support >= 2),
      rank1_counter_(&Telemetry::instance().counter("lspi.rank1_updates")),
      singular_counter_(
          &Telemetry::instance().counter("lspi.singular_skips")),
      truncation_counter_(
          &Telemetry::instance().counter("lspi.truncations")),
      fill_gauge_(&Telemetry::instance().gauge("lspi.b_offdiag_nnz")),
      u_scratch_(dim > 0 ? dim : 0),
      w_scratch_(dim > 0 ? dim : 0),
      row_b_scratch_(dim > 0 ? dim : 0) {
  MEGH_REQUIRE(dim > 0, "LSPI dimension must be positive");
  MEGH_REQUIRE(gamma >= 0.0 && gamma < 1.0, "gamma must lie in [0, 1)");
  MEGH_REQUIRE(max_update_support >= 0,
               "max_update_support must be non-negative");
  const double d = delta > 0.0 ? delta : static_cast<double>(dim);
  B_ = SparseMatrix(dim, 1.0 / d);
  slot_of_ = ZeroLazyBuffer<std::int32_t>(static_cast<std::size_t>(dim));
}

void LspiLearner::slot_add(double& slot, std::size_t& nnz, double v) {
  const bool was_nonzero = slot != 0.0;
  double next = slot + v;
  if (std::abs(next) < kZeroTolerance) next = 0.0;
  if (was_nonzero && next == 0.0) --nnz;
  if (!was_nonzero && next != 0.0) ++nnz;
  slot = next;
}

void LspiLearner::theta_axpy(double coef, const SparseVector& sparse) {
  if (coef == 0.0) return;
  const std::span<const std::int64_t> idx = sparse.indices();
  const std::span<const double> val = sparse.values();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    slot_add(slot(idx[k]).theta, theta_nnz_, coef * val[k]);
  }
}

namespace {

/// Gather one field of the compact slots into a SparseVector in ascending
/// index order (slots pack in touch order, SparseVector wants sorted).
template <typename Field>
SparseVector gather_slots(std::int64_t dim,
                          std::span<const std::int64_t> index_of_slot,
                          Field&& field) {
  std::vector<std::pair<std::int64_t, double>> live;
  live.reserve(index_of_slot.size());
  for (std::size_t s = 0; s < index_of_slot.size(); ++s) {
    const double v = field(s);
    if (v != 0.0) live.emplace_back(index_of_slot[s], v);
  }
  std::sort(live.begin(), live.end());
  SparseVector out(dim);
  out.reserve(live.size());
  for (const auto& [i, v] : live) out.push_back(i, v);
  return out;
}

}  // namespace

SparseVector LspiLearner::theta() const {
  return gather_slots(dim_, index_of_slot_,
                      [&](std::size_t s) { return slots_[s].theta; });
}

SparseVector LspiLearner::z() const {
  return gather_slots(dim_, index_of_slot_,
                      [&](std::size_t s) { return slots_[s].z; });
}

void LspiLearner::truncate_support(SparseVector& v, std::int64_t keep1,
                                   std::int64_t keep2) {
  if (max_update_support_ <= 0 ||
      v.nnz() <= static_cast<std::size_t>(max_update_support_)) {
    return;
  }
  ++truncations_;
  // Keep the largest-magnitude entries; the action indices themselves
  // (keep1/keep2) are always retained so the denominator stays exact.
  const double kept1 = v.get(keep1);
  const double kept2 = v.get(keep2);
  trunc_scratch_.clear();
  trunc_scratch_.reserve(v.nnz());
  const std::span<const std::int64_t> idx = v.indices();
  const std::span<const double> val = v.values();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    trunc_scratch_.emplace_back(idx[k], val[k]);
  }
  const std::size_t keep = static_cast<std::size_t>(max_update_support_);
  // Ties broken toward the smaller index so the kept set is a
  // deterministic function of the factor's values — replay and
  // checkpoint-resume runs truncate identically.
  std::nth_element(trunc_scratch_.begin(),
                   trunc_scratch_.begin() + static_cast<std::ptrdiff_t>(keep),
                   trunc_scratch_.end(), [](const auto& a, const auto& b) {
                     const double ma = std::abs(a.second);
                     const double mb = std::abs(b.second);
                     if (ma != mb) return ma > mb;
                     return a.first < b.first;
                   });
  trunc_scratch_.resize(keep);
  bool has1 = false, has2 = false;
  for (const auto& [i, value] : trunc_scratch_) {
    if (i == keep1) has1 = true;
    if (i == keep2) has2 = true;
  }
  // Stored entries always have magnitude >= tolerance, so a nonzero read
  // means the index was present in v.
  if (!has1 && kept1 != 0.0) trunc_scratch_.emplace_back(keep1, kept1);
  if (!has2 && keep2 != keep1 && kept2 != 0.0) {
    trunc_scratch_.emplace_back(keep2, kept2);
  }
  std::sort(trunc_scratch_.begin(), trunc_scratch_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  v.clear();
  for (const auto& [i, value] : trunc_scratch_) v.push_back(i, value);
}

bool LspiLearner::update_fused(std::int64_t a, double cost, std::int64_t b,
                               const SparseVector& row_b) {
  ++updates_;

  // Kick off the kernel's independent random loads together: the slot-map
  // entries at a and b plus B's row/column map entries — the only d-sized
  // arrays left on the path. The kernel is latency-bound on these misses;
  // overlapping them is most of the cost.
  MEGH_PREFETCH(slot_of_.data() + a);
  if (b != a) MEGH_PREFETCH(slot_of_.data() + b);
  B_.prefetch_unit_update(a, b);

  // Steady state: with the paper's δ = d initialization the rank-1
  // off-diagonal products sit below the zero tolerance and B stays
  // diagonal, so u and w have at most 1 and 2 entries and the whole
  // update reduces to a handful of scalar ops (update_fused_diagonal).
  double diag_a = 0.0;
  if (fast_path_ok_ && !force_general_ && row_b.nnz() <= 1 &&
      B_.diagonal_only(a, &diag_a) &&
      std::abs(diag_a) >= kZeroTolerance) {
    return update_fused_diagonal(a, cost, b, row_b, diag_a);
  }

  // u = B e_a (column a), w = (e_a − γ e_b)ᵀ B (row a minus γ·row b) —
  // both extracted into flat sorted scratch, merged in place.
  B_.col_into(a, u_scratch_);
  B_.row_into(a, w_scratch_);
  w_scratch_.axpy(-gamma_, row_b);
  const long long truncations_before = truncations_;
  truncate_support(u_scratch_, a, b);
  truncate_support(w_scratch_, a, b);
  truncation_counter_->add(truncations_ - truncations_before);

  // Denominator: 1 + (e_a − γ e_b)ᵀ B e_a = 1 + u[a] − γ u[b].
  const double denom = 1.0 + u_scratch_.get(a) - gamma_ * u_scratch_.get(b);

  // z ← z + C e_a  and incremental θ:
  //   θ' = B'z' = θ + C·u − u·(w·z')/denom     (see lspi.hpp header)
  slot_add(slot(a).z, z_nnz_, cost);
  if (std::abs(denom) < 1e-12) {
    // Singular update: keep B as-is (θ' = B z' = θ + C·u).
    ++singular_skips_;
    singular_counter_->add(1);
    theta_axpy(cost, u_scratch_);
    return false;
  }
  // w·z streams w's sorted support against the accumulator slots (virgin
  // slots read as zero without materializing), in ascending index order.
  const std::span<const std::int64_t> w_idx = w_scratch_.indices();
  const std::span<const double> w_val = w_scratch_.values();
  double wz = 0.0;
  for (std::size_t k = 0; k < w_idx.size(); ++k) {
    wz += w_val[k] * slot_z(w_idx[k]);
  }
  theta_axpy(cost - wz / denom, u_scratch_);

  // B ← B − u wᵀ / denom. The rank-1 touches exactly the rows in supp(u);
  // the caller's cached row b stays valid unless u[b] ≠ 0.
  const bool touches_row_b = u_scratch_.get(b) != 0.0;
  B_.rank1_update(u_scratch_, w_scratch_, -1.0 / denom);
  rank1_counter_->add(1);
  fill_gauge_->set(static_cast<double>(B_.offdiag_nnz()));
  return touches_row_b;
}

bool LspiLearner::update_fused_diagonal(std::int64_t a, double cost,
                                        std::int64_t b,
                                        const SparseVector& row_b,
                                        double diag_a) {
  // Every expression below keeps the exact shape of the operation the
  // general path would perform on the same state, so the two paths are
  // bit-identical (the forced-general equivalence test pins this down).
  //
  // u = B e_a = {a: diag_a} (col a is diagonal-only). No truncation:
  // supports 1 and 2 are within every max_update_support this path
  // accepts (fast_path_ok_).
  //
  // w = row(a) − γ·row(b) = {a: diag_a} axpy'd with row_b's single entry;
  // mirror SparseVector::axpy's merge: an index collision sums in place
  // (kept at |·| >= tolerance), a disjoint entry lands scaled and is
  // pruned when |−γ| < 1 leaves it below tolerance (γ < 1 always here).
  SparseMatrix::Entry w[2];
  std::size_t wn = 0;
  std::int64_t ib = 0;
  double vb = 0.0;
  bool have_b = false;
  if (gamma_ != 0.0 && row_b.nnz() == 1) {
    ib = row_b.indices()[0];
    vb = row_b.values()[0];
    have_b = true;
  }
  if (have_b && ib == a) {
    const double nv = diag_a + -gamma_ * vb;
    if (std::abs(nv) >= kZeroTolerance) {
      w[wn++] = SparseMatrix::Entry{a, nv};
    }
  } else {
    if (have_b) {
      const double nv = -gamma_ * vb;
      if (std::abs(nv) >= kZeroTolerance) {
        vb = nv;
      } else {
        have_b = false;
      }
    }
    if (have_b && ib < a) w[wn++] = SparseMatrix::Entry{ib, vb};
    w[wn++] = SparseMatrix::Entry{a, diag_a};
    if (have_b && ib > a) w[wn++] = SparseMatrix::Entry{ib, vb};
  }

  // Denominator: 1 + u[a] − γ u[b] with u = {a: diag_a}.
  const double u_b = b == a ? diag_a : 0.0;
  const double denom = 1.0 + diag_a - gamma_ * u_b;

  slot_add(slot(a).z, z_nnz_, cost);
  if (std::abs(denom) < 1e-12) {
    // Singular update: keep B as-is (θ' = B z' = θ + C·u); θ axpy over
    // u's single entry, skipped entirely at zero coefficient exactly like
    // theta_axpy.
    ++singular_skips_;
    singular_counter_->add(1);
    if (cost != 0.0) slot_add(slot(a).theta, theta_nnz_, cost * diag_a);
    return false;
  }

  // w·z in ascending index order, as in the general path.
  double wz = 0.0;
  for (std::size_t k = 0; k < wn; ++k) wz += w[k].val * slot_z(w[k].col);
  const double coef = cost - wz / denom;
  if (coef != 0.0) slot_add(slot(a).theta, theta_nnz_, coef * diag_a);

  const bool touches_row_b = b == a;  // u.get(b) != 0, |diag_a| >= tol
  B_.unit_rank1_diagonal(a, diag_a, std::span<const SparseMatrix::Entry>(w, wn),
                         -1.0 / denom);
  rank1_counter_->add(1);
  fill_gauge_->set(static_cast<double>(B_.offdiag_nnz()));
  return touches_row_b;
}

void LspiLearner::update(std::int64_t a, double cost, std::int64_t b) {
  const std::int64_t actions[1] = {a};
  update_batch(std::span<const std::int64_t>(actions, 1), cost, b);
}

void LspiLearner::q_values(std::span<const std::int64_t> actions,
                           std::span<double> out) const {
  MEGH_ASSERT(actions.size() == out.size(),
              "q_values: output span size mismatch");
  for (std::size_t k = 0; k < actions.size(); ++k) {
    out[k] = q_value(actions[k]);
  }
}

void LspiLearner::update_batch(std::span<const std::int64_t> actions,
                               double cost, std::int64_t b) {
  if (actions.empty()) return;
  MEGH_ASSERT(b >= 0 && b < dim_,
              "LSPI update: next-action index out of range");
  MEGH_TRACE_SCOPE("lspi.update");
  // Stage A: kick off every batch action's slot-map loads (plus b's) up
  // front — the maps are the only d-sized arrays, their entries are
  // independent random misses, and the batch is small (budget-bounded),
  // so all of them can be in flight together.
  MEGH_PREFETCH(slot_of_.data() + b);
  B_.prefetch_unit_update(b, b);
  for (std::size_t k = 0; k < actions.size(); ++k) {
    MEGH_ASSERT(actions[k] >= 0 && actions[k] < dim_,
                "LSPI update: action index out of range");
    MEGH_PREFETCH(slot_of_.data() + actions[k]);
    B_.prefetch_unit_update(actions[k], actions[k]);
  }
  // Stage B: by the time the prefetch loop above has issued everything,
  // the first map entries have arrived; resolve each one and start the
  // dependent payload loads (B row header, z/θ slot pair) behind it. The
  // first resolve stalls on its map load, but every payload line is then
  // in flight together — two overlapped latency rounds for the whole
  // batch instead of a serial map→payload chain per action. (These are
  // hints: if an update later grows the payload arrays, the stale lines
  // are simply unused.)
  B_.prefetch_row_payload(b);
  prefetch_slot_payload(b);
  for (std::size_t k = 0; k < actions.size(); ++k) {
    B_.prefetch_row_payload(actions[k]);
    prefetch_slot_payload(actions[k]);
  }
  bool row_b_valid = false;
  for (std::size_t k = 0; k < actions.size(); ++k) {
    if (!row_b_valid) {
      B_.row_into(b, row_b_scratch_);
      row_b_valid = true;
    }
    if (update_fused(actions[k], cost, b, row_b_scratch_)) {
      row_b_valid = false;
    }
  }
}

void LspiLearner::restore(SparseMatrix b, SparseVector z,
                          SparseVector theta) {
  MEGH_REQUIRE(b.dim() == dim_ && z.dim() == dim_ && theta.dim() == dim_,
               "LspiLearner::restore: shape mismatch");
  B_ = std::move(b);
  // Fresh lazily-zeroed map instead of a dense O(d) fill; slots rebuild
  // from the checkpointed support only.
  slot_of_ = ZeroLazyBuffer<std::int32_t>(static_cast<std::size_t>(dim_));
  slots_.clear();
  index_of_slot_.clear();
  z_nnz_ = 0;
  theta_nnz_ = 0;
  for (const auto& [i, value] : z.entries()) {
    slot(i).z = value;
    if (value != 0.0) ++z_nnz_;
  }
  for (const auto& [i, value] : theta.entries()) {
    slot(i).theta = value;
    if (value != 0.0) ++theta_nnz_;
  }
  // Counters deliberately survive: restore() is also the burst-rollback and
  // checkpoint-resume path, and zeroing them there silently reset
  // MeghPolicy::stats() and the lspi.* telemetry mid-run. Lifetime
  // diagnostics reset only with the learner itself (constructor).
}

}  // namespace megh
