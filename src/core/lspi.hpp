// Megh's critic: least-squares policy iteration over the sparse action
// basis (Algorithm 1 of the paper).
//
// State per learner:
//   B = T⁻¹  — inverse transition operator, initialized to δ⁻¹·I (δ = d);
//   z        — discounted cost accumulator, z_{t+1} = z_t + φ_{a} C;
//   θ = B z  — the projection vector; V(s') = θᵀφ_a, i.e. Q(a) = θ[a].
//
// The transition update T_{t+1} = T_t + φ_a (φ_a − γ φ_b)ᵀ (Eq. 10) is
// applied to B directly through the Sherman–Morrison identity (Eq. 11).
// Because φ_a and φ_b are unit vectors, the update touches only column a and
// rows a/b of B, and θ is maintained incrementally through the same rank-1
// identity — never a dense d-vector refresh. This realizes the paper's
// O(#migrations) per-step cost claim (Sec. 5.2).
//
// Every update runs through one fused kernel: the factors u = B e_a and
// w = (e_a − γ e_b)ᵀ B are extracted into flat sorted scratch buffers
// (reused across calls — zero steady-state allocation), the denominator,
// w·z, the θ axpy and the B rank-1 merge all run on those contiguous spans.
// It has no special case for the diagonal steady state B keeps at δ = d:
// there u and w have one or two entries and the general merges are already
// cheap next to the step around them.
// `update_batch` additionally amortizes row b across a step's multi-action
// update: Megh closes every pending action against the same greedy b, so
// B.row(b) is extracted once and re-extracted only when a rank-1 update
// actually touched row b.
//
// Storage split: B's rows/columns have small bounded support (a handful of
// entries each, kept so by factor truncation), so they live in the flat
// sorted SparseMatrix. θ and z are the opposite shape — support grows with
// every distinct action ever touched and updates hit random indices — so
// they are addressed through a lazily-zeroed d-sized int32 slot map with
// compact payload slots and incremental nonzero counters: z += C e_a is
// one map lookup plus one store, the θ axpy is O(|u|), q_value is two
// dependent loads, and w·z streams w's sorted support against the slots.
// z[i] and θ[i] are interleaved in one 16-byte slot because every update
// touches both at the same action index — one cache line serves the pair.
// Sparse views are materialized on demand (checkpointing, tests) in
// O(support).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/zero_lazy_buffer.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/sparse_vector.hpp"

namespace megh {

class LspiLearner {
 public:
  /// `dim` = d = N × M. `delta` <= 0 selects the paper's δ = d
  /// initialization B₀ = (1/δ)·I. `max_update_support` > 0 truncates each
  /// Sherman–Morrison factor (u = B φ_a and w = (φ_a − γφ_b)ᵀ B) to its
  /// largest-magnitude entries before the rank-1 update, bounding B's
  /// fill-in so the per-step cost stays O(1) over long runs — the
  /// practical realization of the paper's sparse data structure
  /// (Sec. 5.2). 0 keeps the update exact (used by the algebra tests).
  LspiLearner(std::int64_t dim, double gamma, double delta = -1.0,
              int max_update_support = 0);

  /// One SARSA-style transition: action `a` was taken, cost `cost` was
  /// observed, and the policy's next action is `b` (φ_{π_t(s_{t+1})}).
  /// Updates B (Sherman–Morrison), z, and θ incrementally.
  void update(std::int64_t a, double cost, std::int64_t b);

  /// Apply one update per action against a shared next-action `b` and a
  /// shared per-action cost. Exactly equivalent to calling update() in a
  /// loop (same θ/B/z bit for bit, same counters), but B.row(b) is
  /// extracted once and reused until a rank-1 update touches row b.
  void update_batch(std::span<const std::int64_t> actions, double cost,
                    std::int64_t b);

  /// Q(a) = θ[a]: the estimated discounted cost-to-go of action a.
  double q_value(std::int64_t a) const {
    MEGH_ASSERT(a >= 0 && a < dim_, "q_value: action index out of range");
    const std::int32_t s = slot_of_[static_cast<std::size_t>(a)];
    return s != 0 ? slots_[static_cast<std::size_t>(s - 1)].theta : 0.0;
  }

  /// Batched Q lookup: out[k] = q_value(actions[k]) — the policy scores
  /// its whole candidate set this way.
  void q_values(std::span<const std::int64_t> actions,
                std::span<double> out) const;

  std::int64_t dim() const { return dim_; }
  double gamma() const { return gamma_; }

  /// Size of the learned model — the paper's "number of non-zero elements
  /// in the Q-table" (Fig. 7): nnz(θ) plus off-diagonal nnz of B.
  std::size_t qtable_nnz() const {
    return theta_nnz_ + B_.offdiag_nnz();
  }

  std::size_t theta_nnz() const { return theta_nnz_; }
  /// Sparse views of the dense-backed accumulators, materialized in
  /// ascending index order (checkpointing/tests — O(d), not a hot path).
  SparseVector theta() const;
  const SparseMatrix& B() const { return B_; }
  SparseVector z() const;

  /// Replace the learned state wholesale (checkpoint load). Shapes must
  /// match dim(). The lifetime counters (updates/singular_skips/
  /// truncations) are preserved — they describe this learner's history,
  /// not the restored model — so Megh's stats() stay monotone across a
  /// resume.
  void restore(SparseMatrix b, SparseVector z, SparseVector theta);

  /// Number of update() calls (diagnostics/tests).
  long long updates() const { return updates_; }
  /// Updates skipped because the Sherman–Morrison denominator was singular.
  long long singular_skips() const { return singular_skips_; }
  /// Sherman–Morrison factors clipped to max_update_support entries.
  long long truncations() const { return truncations_; }

 private:
  void truncate_support(SparseVector& v, std::int64_t keep1,
                        std::int64_t keep2);

  /// The fused kernel body for a single transition. `row_b` must hold
  /// B.row(b); returns true when the applied rank-1 update touched row b
  /// (the caller must then refresh its cached row_b).
  bool update_fused(std::int64_t a, double cost, std::int64_t b,
                    const SparseVector& row_b);

  /// One accumulator slot: z[i] and θ[i] share a cache line because the
  /// update kernel touches both at the same action index.
  struct Slot {
    double z = 0.0;
    double theta = 0.0;
  };

  /// Materialize-on-write slot lookup. May grow the compact slot array —
  /// callers must not hold slot references across a touch of a different
  /// index.
  Slot& slot(std::int64_t i) {
    std::int32_t& s = slot_of_[static_cast<std::size_t>(i)];
    if (s == 0) {
      slots_.emplace_back();
      index_of_slot_.push_back(i);
      s = static_cast<std::int32_t>(slots_.size());
    }
    return slots_[static_cast<std::size_t>(s - 1)];
  }

  /// Read-side view: a virgin slot reads as zero without materializing.
  double slot_z(std::int64_t i) const {
    const std::int32_t s = slot_of_[static_cast<std::size_t>(i)];
    return s != 0 ? slots_[static_cast<std::size_t>(s - 1)].z : 0.0;
  }

  /// slot += v with pruning to exact zero below tolerance and incremental
  /// nnz maintenance — the dense twin of SparseVector::add.
  static void slot_add(double& slot, std::size_t& nnz, double v);

  /// θ += coef · sparse, entrywise via slot_add (order-independent).
  void theta_axpy(double coef, const SparseVector& sparse);

  std::int64_t dim_;
  double gamma_;
  int max_update_support_;
  SparseMatrix B_;
  // Interleaved z/θ accumulators with exact-zero pruning; *_nnz_ counts
  // entries with magnitude >= kZeroTolerance. Stored like B's rows: the
  // only d-sized structure is a lazily-zeroed int32 slot map (0 = virgin),
  // and materialized slots pack densely in touch order. Creating the
  // d-slot accumulator is O(1) and the live slots fit in cache while the
  // untouched map reads off the kernel's shared zero page.
  ZeroLazyBuffer<std::int32_t> slot_of_;
  std::vector<Slot> slots_;                  // compact, touch order
  std::vector<std::int64_t> index_of_slot_;  // slot → action index
  std::size_t z_nnz_ = 0;
  std::size_t theta_nnz_ = 0;
  long long updates_ = 0;
  long long singular_skips_ = 0;
  long long truncations_ = 0;

  // Fused-kernel scratch (reused across updates; never observable state).
  SparseVector u_scratch_;
  SparseVector w_scratch_;
  SparseVector row_b_scratch_;
  std::vector<std::pair<std::int64_t, double>> trunc_scratch_;
};

}  // namespace megh
