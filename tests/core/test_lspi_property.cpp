// Property tests for the fused LSPI critic update against a dense
// reference implementation.
//
// The reference maintains the model the slow, obvious way: a dense
// B = T⁻¹ advanced through the dense Sherman–Morrison overload, a dense
// cost accumulator z, and θ recomputed as the full product B·z after every
// transition. The production learner maintains the same state through the
// fused sparse kernel (flat extraction, merged factors, incremental θ,
// truncation, singular skips) — randomized sequences must agree to 1e-9,
// including the singular-denominator and factor-truncation paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/lspi.hpp"
#include "oracle/dense_matrix.hpp"
#include "oracle/sherman_morrison.hpp"

namespace megh {
namespace {

constexpr double kTol = 1e-9;

/// Dense mirror of LspiLearner: same update semantics, no sparsity.
class DenseLspiReference {
 public:
  DenseLspiReference(std::int64_t dim, double gamma)
      : dim_(dim),
        gamma_(gamma),
        B_(DenseMatrix::identity(dim, 1.0 / static_cast<double>(dim))),
        z_(static_cast<std::size_t>(dim), 0.0) {}

  void update(std::int64_t a, double cost, std::int64_t b) {
    std::vector<double> u(static_cast<std::size_t>(dim_), 0.0);
    std::vector<double> v(static_cast<std::size_t>(dim_), 0.0);
    u[static_cast<std::size_t>(a)] = 1.0;
    v[static_cast<std::size_t>(a)] += 1.0;
    v[static_cast<std::size_t>(b)] -= gamma_;
    z_[static_cast<std::size_t>(a)] += cost;
    // On a singular denominator the dense overload leaves B untouched,
    // matching the learner's skip path; θ = B z either way.
    sherman_morrison_update(B_, u, v);
  }

  double theta(std::int64_t i) const {
    double sum = 0.0;
    for (std::int64_t c = 0; c < dim_; ++c) {
      sum += B_.at(i, c) * z_[static_cast<std::size_t>(c)];
    }
    return sum;
  }

  const DenseMatrix& B() const { return B_; }
  double z(std::int64_t i) const { return z_[static_cast<std::size_t>(i)]; }

 private:
  std::int64_t dim_;
  double gamma_;
  DenseMatrix B_;
  std::vector<double> z_;
};

void expect_learner_matches(const LspiLearner& learner,
                            const DenseLspiReference& ref) {
  const std::int64_t dim = learner.dim();
  for (std::int64_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(learner.q_value(i), ref.theta(i), kTol) << "theta[" << i << "]";
  }
  const DenseMatrix b = to_dense(learner.B());
  for (std::int64_t r = 0; r < dim; ++r) {
    for (std::int64_t c = 0; c < dim; ++c) {
      EXPECT_NEAR(b.at(r, c), ref.B().at(r, c), kTol)
          << "B(" << r << ", " << c << ")";
    }
  }
}

TEST(LspiPropertyTest, RandomSequencesMatchDenseReference) {
  const std::int64_t dim = 32;
  for (unsigned seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    LspiLearner learner(dim, 0.9);
    DenseLspiReference ref(dim, 0.9);
    for (int step = 0; step < 200; ++step) {
      const auto a = static_cast<std::int64_t>(
          rng.index(static_cast<std::size_t>(dim)));
      const auto b = static_cast<std::int64_t>(
          rng.index(static_cast<std::size_t>(dim)));
      const double cost = rng.normal(1.0, 0.5);
      learner.update(a, cost, b);
      ref.update(a, cost, b);
    }
    EXPECT_EQ(learner.singular_skips(), 0);
    expect_learner_matches(learner, ref);
  }
}

TEST(LspiPropertyTest, SingularDenominatorSkipsRankOneButFoldsCost) {
  // Craft B so that 1 + u[a] − γ·u[b] = 0 for a chosen (a, b):
  // with γ = 0.5, B[a][a] = 1 and B[b][a] = 4 give 1 + 1 − 0.5·4 = 0.
  const std::int64_t dim = 8;
  const std::int64_t a = 2, b = 5;
  LspiLearner learner(dim, 0.5);
  SparseMatrix B(dim, 1.0 / static_cast<double>(dim));
  B.set(a, a, 1.0);
  B.set(b, a, 4.0);
  learner.restore(std::move(B), SparseVector(dim), SparseVector(dim));
  const DenseMatrix before = to_dense(learner.B());

  learner.update(a, 3.0, b);

  EXPECT_EQ(learner.singular_skips(), 1);
  // B must be untouched; θ' = θ + C·u = C·(column a of B).
  const DenseMatrix after = to_dense(learner.B());
  for (std::int64_t r = 0; r < dim; ++r) {
    for (std::int64_t c = 0; c < dim; ++c) {
      EXPECT_EQ(after.at(r, c), before.at(r, c));
    }
    EXPECT_NEAR(learner.q_value(r), 3.0 * before.at(r, a), kTol);
  }
  EXPECT_NEAR(learner.z().get(a), 3.0, kTol);
}

TEST(LspiPropertyTest, ThetaAxpyPrunesBelowToleranceAndCountsNnz) {
  // The singular setup above with one more entry in column a, so that
  // θ' = θ + C·u with u = {a: 1, c: 2, b: 4}. θ is restored so that the
  // update cancels θ[a] exactly and leaves θ[b] at ~5e-13 (both prune to
  // exact zero), materializes the virgin slot c, and leaves θ[7] alone.
  const std::int64_t dim = 8;
  const std::int64_t a = 2, c = 3, b = 5;
  const double cost = 3.0;
  LspiLearner learner(dim, 0.5);
  SparseMatrix B(dim, 1.0 / static_cast<double>(dim));
  B.set(a, a, 1.0);
  B.set(c, a, 2.0);
  B.set(b, a, 4.0);
  SparseVector theta(dim);
  theta.push_back(a, -cost);
  theta.push_back(b, -4.0 * cost + 5e-13);
  theta.push_back(7, 1.0);
  learner.restore(std::move(B), SparseVector(dim), std::move(theta));
  ASSERT_EQ(learner.theta_nnz(), 3u);

  learner.update(a, cost, b);

  ASSERT_EQ(learner.singular_skips(), 1);
  EXPECT_EQ(learner.q_value(a), 0.0);
  EXPECT_EQ(learner.q_value(b), 0.0);
  EXPECT_EQ(learner.q_value(c), 2.0 * cost);
  EXPECT_EQ(learner.q_value(7), 1.0);
  EXPECT_EQ(learner.theta_nnz(), 2u);
  EXPECT_EQ(learner.qtable_nnz(), 2u + learner.B().offdiag_nnz());
}

TEST(LspiPropertyTest, TruncatedFactorsMatchDenseReplay) {
  // With max_update_support set, the learner clips each Sherman–Morrison
  // factor to its largest-magnitude entries (always keeping a and b).
  // Replay the same clipped updates through dense algebra: extract u/w
  // from the dense mirror, apply the same truncation rule, and advance
  // dense B and θ with the clipped factors.
  const std::int64_t dim = 24;
  const int support = 4;
  const double gamma = 0.85;
  // The learner prunes entries below this to exact zero (factors, B's
  // off-diagonal, θ/z slots); the replay must mirror that, or a pruned
  // 1e-12 entry eventually flips a near-tied truncation set and the
  // trajectories diverge macroscopically.
  constexpr double kPrune = kZeroTolerance;
  const auto snap = [](double& x) {
    if (std::abs(x) < kPrune) x = 0.0;
  };
  for (unsigned seed = 1; seed <= 3; ++seed) {
    Rng rng(40 + seed);
    LspiLearner learner(dim, gamma, -1.0, support);
    DenseMatrix B = DenseMatrix::identity(dim, 1.0 / static_cast<double>(dim));
    std::vector<double> z(static_cast<std::size_t>(dim), 0.0);
    std::vector<double> theta(static_cast<std::size_t>(dim), 0.0);

    const auto truncate = [&](std::vector<double>& v, std::int64_t keep1,
                              std::int64_t keep2) {
      std::vector<std::pair<double, std::int64_t>> mag;
      for (std::int64_t i = 0; i < dim; ++i) {
        if (v[static_cast<std::size_t>(i)] != 0.0) {
          mag.emplace_back(std::abs(v[static_cast<std::size_t>(i)]), i);
        }
      }
      if (mag.size() <= static_cast<std::size_t>(support)) return;
      // Same ordering as the learner: magnitude descending, index
      // ascending on exact ties.
      std::sort(mag.begin(), mag.end(), [](const auto& x, const auto& y) {
        if (x.first != y.first) return x.first > y.first;
        return x.second < y.second;
      });
      std::vector<bool> keep(static_cast<std::size_t>(dim), false);
      for (int k = 0; k < support; ++k) {
        keep[static_cast<std::size_t>(mag[static_cast<std::size_t>(k)]
                                          .second)] = true;
      }
      keep[static_cast<std::size_t>(keep1)] = true;
      keep[static_cast<std::size_t>(keep2)] = true;
      for (std::int64_t i = 0; i < dim; ++i) {
        if (!keep[static_cast<std::size_t>(i)]) {
          v[static_cast<std::size_t>(i)] = 0.0;
        }
      }
    };

    // 60 steps: long enough to force truncations on every factor, short
    // enough that the learner's 1e-12 prune-to-zero perturbations (absent
    // from the dense replay) stay below the 1e-9 comparison bound.
    for (int step = 0; step < 60; ++step) {
      const auto a = static_cast<std::int64_t>(
          rng.index(static_cast<std::size_t>(dim)));
      const auto b = static_cast<std::int64_t>(
          rng.index(static_cast<std::size_t>(dim)));
      const double cost = rng.normal(1.0, 0.5);
      learner.update(a, cost, b);

      // Dense replay with the same truncation and pruning rules.
      std::vector<double> u(static_cast<std::size_t>(dim), 0.0);
      std::vector<double> w(static_cast<std::size_t>(dim), 0.0);
      for (std::int64_t i = 0; i < dim; ++i) {
        u[static_cast<std::size_t>(i)] = B.at(i, a);
        w[static_cast<std::size_t>(i)] = B.at(a, i) - gamma * B.at(b, i);
        snap(u[static_cast<std::size_t>(i)]);
        snap(w[static_cast<std::size_t>(i)]);
      }
      truncate(u, a, b);
      truncate(w, a, b);
      const double denom = 1.0 + u[static_cast<std::size_t>(a)] -
                           gamma * u[static_cast<std::size_t>(b)];
      z[static_cast<std::size_t>(a)] += cost;
      snap(z[static_cast<std::size_t>(a)]);
      ASSERT_GE(std::abs(denom), 1e-12) << "unexpected singular step";
      double wz = 0.0;
      for (std::int64_t i = 0; i < dim; ++i) {
        wz += w[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
      }
      const double coef = cost - wz / denom;
      for (std::int64_t i = 0; i < dim; ++i) {
        if (u[static_cast<std::size_t>(i)] != 0.0 && coef != 0.0) {
          theta[static_cast<std::size_t>(i)] +=
              coef * u[static_cast<std::size_t>(i)];
          snap(theta[static_cast<std::size_t>(i)]);
        }
      }
      B.rank1_update(u, w, -1.0 / denom);
      for (std::int64_t r = 0; r < dim; ++r) {
        for (std::int64_t c = 0; c < dim; ++c) {
          // The learner's merge drops sub-tolerance off-diagonal entries;
          // the stored diagonal is never pruned.
          if (r != c && std::abs(B.at(r, c)) < kPrune) B.at(r, c) = 0.0;
        }
      }
    }

    EXPECT_GT(learner.truncations(), 0);
    const DenseMatrix got = to_dense(learner.B());
    for (std::int64_t r = 0; r < dim; ++r) {
      EXPECT_NEAR(learner.q_value(r), theta[static_cast<std::size_t>(r)], kTol)
          << "theta[" << r << "]";
      for (std::int64_t c = 0; c < dim; ++c) {
        EXPECT_NEAR(got.at(r, c), B.at(r, c), kTol)
            << "B(" << r << ", " << c << ")";
      }
    }
  }
}

TEST(LspiPropertyTest, UpdateBatchBitIdenticalToUpdateLoop) {
  // update_batch's row-b caching and software pipelining are pure
  // plumbing: against the same transitions it must produce bit-identical
  // state and identical diagnostics to the one-at-a-time loop.
  const std::int64_t dim = 64;
  Rng rng(77);
  LspiLearner batched(dim, 0.9);
  LspiLearner looped(dim, 0.9);
  for (int step = 0; step < 50; ++step) {
    std::vector<std::int64_t> actions;
    const int count = 1 + static_cast<int>(rng.index(6));
    for (int k = 0; k < count; ++k) {
      actions.push_back(static_cast<std::int64_t>(
          rng.index(static_cast<std::size_t>(dim))));
    }
    const auto b = static_cast<std::int64_t>(
        rng.index(static_cast<std::size_t>(dim)));
    const double cost = rng.normal(1.0, 0.5);
    batched.update_batch(actions, cost, b);
    for (const std::int64_t a : actions) looped.update(a, cost, b);
  }
  EXPECT_EQ(batched.updates(), looped.updates());
  EXPECT_EQ(batched.singular_skips(), looped.singular_skips());
  EXPECT_EQ(batched.truncations(), looped.truncations());
  EXPECT_EQ(batched.qtable_nnz(), looped.qtable_nnz());
  for (std::int64_t i = 0; i < dim; ++i) {
    EXPECT_EQ(batched.q_value(i), looped.q_value(i)) << "theta[" << i << "]";
    EXPECT_EQ(batched.z().get(i), looped.z().get(i)) << "z[" << i << "]";
  }
  const DenseMatrix lhs = to_dense(batched.B());
  const DenseMatrix rhs = to_dense(looped.B());
  for (std::int64_t r = 0; r < dim; ++r) {
    for (std::int64_t c = 0; c < dim; ++c) {
      EXPECT_EQ(lhs.at(r, c), rhs.at(r, c)) << "B(" << r << ", " << c << ")";
    }
  }
}

}  // namespace
}  // namespace megh
