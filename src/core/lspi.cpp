#include "core/lspi.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace megh {

LspiLearner::LspiLearner(std::int64_t dim, double gamma, double delta,
                         int max_update_support)
    : dim_(dim),
      gamma_(gamma),
      max_update_support_(max_update_support),
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

  // u = B e_a (column a), w = (e_a − γ e_b)ᵀ B (row a minus γ·row b) —
  // both extracted into flat sorted scratch, merged in place.
  B_.col_into(a, u_scratch_);
  B_.row_into(a, w_scratch_);
  w_scratch_.axpy(-gamma_, row_b);
  truncate_support(u_scratch_, a, b);
  truncate_support(w_scratch_, a, b);

  // Denominator: 1 + (e_a − γ e_b)ᵀ B e_a = 1 + u[a] − γ u[b].
  const double denom = 1.0 + u_scratch_.get(a) - gamma_ * u_scratch_.get(b);

  // z ← z + C e_a  and incremental θ:
  //   θ' = B'z' = θ + C·u − u·(w·z')/denom     (see lspi.hpp header)
  slot_add(slot(a).z, z_nnz_, cost);
  if (std::abs(denom) < 1e-12) {
    // Singular update: keep B as-is (θ' = B z' = θ + C·u).
    ++singular_skips_;
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
  for (const std::int64_t a : actions) {
    MEGH_ASSERT(a >= 0 && a < dim_, "LSPI update: action index out of range");
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
  // Counters deliberately survive: restore() is the checkpoint-resume
  // path, and zeroing them there would reset MeghPolicy::stats() mid-run.
  // Lifetime diagnostics reset only with the learner itself (constructor).
}

}  // namespace megh
