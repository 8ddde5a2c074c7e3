// Critic tests: the sparse incremental LSPI state must exactly track its
// dense algebraic definition — B = T⁻¹, z = Σ φ_a C, θ = B z — under any
// sequence of updates (paper Algorithm 1 lines 8–11, Eq. 10/11).
#include "core/lspi.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/rng.hpp"
#include "oracle/dense_matrix.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define MEGH_RSS_TEST_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MEGH_RSS_TEST_DISABLED 1
#endif
#endif
#ifndef MEGH_RSS_TEST_DISABLED
#define MEGH_RSS_TEST_DISABLED 0
#endif

namespace megh {
namespace {

TEST(LspiTest, InitialStateMatchesPaper) {
  LspiLearner learner(10, 0.5);
  // B₀ = (1/δ)I with δ = d: check via a q_value after one update form —
  // directly inspect B.
  EXPECT_DOUBLE_EQ(learner.B().get(3, 3), 0.1);
  EXPECT_DOUBLE_EQ(learner.B().get(3, 4), 0.0);
  EXPECT_EQ(learner.z().nnz(), 0u);
  EXPECT_DOUBLE_EQ(learner.q_value(7), 0.0);
}

TEST(LspiTest, CustomDeltaHonored) {
  LspiLearner learner(10, 0.5, 100.0);
  EXPECT_DOUBLE_EQ(learner.B().get(0, 0), 0.01);
}

TEST(LspiTest, GammaValidated) {
  EXPECT_THROW(LspiLearner(10, 1.0), ConfigError);
  EXPECT_THROW(LspiLearner(10, -0.1), ConfigError);
  EXPECT_THROW(LspiLearner(0, 0.5), ConfigError);
}

class LspiAlgebraProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(LspiAlgebraProperty, ThetaEqualsBTimesZAndBIsInverseOfT) {
  const auto [dim, gamma] = GetParam();
  LspiLearner learner(dim, gamma);
  // Dense shadow of T.
  DenseMatrix t = DenseMatrix::identity(dim, static_cast<double>(dim));
  std::vector<double> z(static_cast<std::size_t>(dim), 0.0);
  Rng rng(17);
  for (int step = 0; step < 60; ++step) {
    const auto a = static_cast<std::int64_t>(
        rng.index(static_cast<std::size_t>(dim)));
    const auto b = static_cast<std::int64_t>(
        rng.index(static_cast<std::size_t>(dim)));
    const double cost = rng.normal(1.0, 0.5);
    learner.update(a, cost, b);

    // Dense shadow: T += e_a (e_a − γ e_b)ᵀ, z += C e_a.
    std::vector<double> ea(static_cast<std::size_t>(dim), 0.0);
    std::vector<double> v(static_cast<std::size_t>(dim), 0.0);
    ea[static_cast<std::size_t>(a)] = 1.0;
    v[static_cast<std::size_t>(a)] += 1.0;
    v[static_cast<std::size_t>(b)] -= gamma;
    t.rank1_update(ea, v, 1.0);
    z[static_cast<std::size_t>(a)] += cost;

    const DenseMatrix b_dense = t.inverse();
    // B tracks T⁻¹.
    EXPECT_LT(to_dense(learner.B()).max_abs_diff(b_dense), 1e-7)
        << "B diverged at step " << step;
    // θ = B z, exposed through q_value.
    const auto theta = b_dense.multiply(z);
    for (int i = 0; i < dim; ++i) {
      EXPECT_NEAR(learner.q_value(i), theta[static_cast<std::size_t>(i)],
                  1e-7)
          << "theta[" << i << "] at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndGammas, LspiAlgebraProperty,
    ::testing::Combine(::testing::Values(4, 9), ::testing::Values(0.5, 0.9)));

TEST(LspiTest, RepeatedCheapActionGetsLowerQ) {
  LspiLearner learner(6, 0.5);
  for (int i = 0; i < 30; ++i) {
    learner.update(0, -1.0, 0);  // consistently good (negative cost)
    learner.update(1, +1.0, 0);  // consistently bad
  }
  EXPECT_LT(learner.q_value(0), learner.q_value(1));
  EXPECT_LT(learner.q_value(0), learner.q_value(5));  // untouched stays 0-ish
}

TEST(LspiTest, QtableNnzGrowsWithDistinctActions) {
  LspiLearner learner(100, 0.5);
  const std::size_t initial = learner.qtable_nnz();
  std::vector<std::size_t> sizes;
  for (int a = 0; a < 20; ++a) {
    learner.update(a, 1.0, (a + 1) % 100);
    sizes.push_back(learner.qtable_nnz());
  }
  EXPECT_GT(sizes.back(), initial);
  // Monotone non-decreasing growth (paper Fig. 7: linear in time).
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GE(sizes[i], sizes[i - 1]);
  }
}

TEST(LspiTest, SingularUpdateSkippedGracefully) {
  // γ = 0: update with a == b gives denom = 1 + (1-0)·B_aa > 0; to force a
  // singular denominator use gamma ~ 1-ish structures repeatedly on the
  // same action. Rather than engineering exact singularity, verify the
  // learner never produces NaNs over an adversarial hammering sequence.
  LspiLearner learner(3, 0.9);
  for (int i = 0; i < 500; ++i) {
    learner.update(i % 3, 1000.0, (i + 1) % 3);
  }
  for (int a = 0; a < 3; ++a) {
    EXPECT_TRUE(std::isfinite(learner.q_value(a)));
  }
  EXPECT_EQ(learner.updates(), 500);
}

TEST(LspiTruncationTest, LargeSupportEqualsExact) {
  // With max_update_support >= the largest factor support, truncation is a
  // no-op and the learner matches the exact one bit for bit.
  LspiLearner exact(10, 0.5, 1.0, 0);
  LspiLearner capped(10, 0.5, 1.0, 64);
  Rng rng(4);
  for (int i = 0; i < 80; ++i) {
    const auto a = static_cast<std::int64_t>(rng.index(10));
    const auto b = static_cast<std::int64_t>(rng.index(10));
    const double c = rng.normal();
    exact.update(a, c, b);
    capped.update(a, c, b);
  }
  for (int q = 0; q < 10; ++q) {
    EXPECT_DOUBLE_EQ(exact.q_value(q), capped.q_value(q));
  }
}

TEST(LspiTruncationTest, TightSupportBoundsFillInWithoutBlowingUp) {
  LspiLearner capped(500, 0.5, 1.0, 8);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    capped.update(static_cast<std::int64_t>(rng.index(500)), rng.normal(1.0),
                  static_cast<std::int64_t>(rng.index(500)));
  }
  // Every Q stays finite and the structure stays bounded: each update adds
  // at most 8×9 off-diagonal entries, and θ/Q remain usable.
  for (int q = 0; q < 500; q += 17) {
    EXPECT_TRUE(std::isfinite(capped.q_value(q)));
  }
  EXPECT_LT(capped.B().offdiag_nnz(), 3000u * 8u * 9u);
}

TEST(LspiTruncationTest, TruncatedStillRanksPersistentActions) {
  // The behavioural property Megh needs from the capped critic: an action
  // consistently paired with low (negative-advantage) cost must end up with
  // a lower Q than one consistently paired with high cost.
  LspiLearner capped(200, 0.5, 1.0, 8);
  Rng rng(6);
  for (int i = 0; i < 800; ++i) {
    capped.update(3, -0.5 + rng.normal(0.0, 0.05), 3);
    capped.update(7, +0.5 + rng.normal(0.0, 0.05), 3);
    capped.update(static_cast<std::int64_t>(rng.index(200)),
                  rng.normal(0.0, 0.2),
                  static_cast<std::int64_t>(rng.index(200)));
  }
  EXPECT_LT(capped.q_value(3), capped.q_value(7));
}

TEST(LspiTest, RestorePreservesLifetimeCounters) {
  // restore() is the checkpoint-resume path; the lifetime diagnostics
  // must survive it so stats()/telemetry stay monotone across a resume.
  LspiLearner learner(50, 0.5, 1.0, 2);  // tight cap → truncations happen
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    learner.update(static_cast<std::int64_t>(rng.index(50)), rng.normal(),
                   static_cast<std::int64_t>(rng.index(50)));
  }
  const long long updates = learner.updates();
  const long long skips = learner.singular_skips();
  const long long truncations = learner.truncations();
  ASSERT_EQ(updates, 300);
  ASSERT_GT(truncations, 0);
  learner.restore(learner.B(), learner.z(), learner.theta());
  EXPECT_EQ(learner.updates(), updates);
  EXPECT_EQ(learner.singular_skips(), skips);
  EXPECT_EQ(learner.truncations(), truncations);
  // Counters keep counting from where they were, not from zero.
  learner.update(1, 1.0, 2);
  EXPECT_EQ(learner.updates(), updates + 1);
  EXPECT_GE(learner.singular_skips(), skips);
  EXPECT_GE(learner.truncations(), truncations);
}

#if defined(__linux__)
/// Resident set size in bytes, from /proc/self/statm (second field, pages).
double resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long size_pages = 0;
  long long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// True when the kernel backs every anonymous mapping with transparent
/// huge pages, committing 2 MiB per first write however little is written.
bool thp_always() {
  std::ifstream mode("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(mode, line);
  return line.find("[always]") != std::string::npos;
}
#endif

// The learn-as-you-go footprint contract: a learner's d-sized slot maps
// (θ/z and B's rows) are zero-initialized lazily, so creating, updating
// and restoring a d ~ 10⁶ learner commits only the pages it writes.
// Eager zeroing of the two int32 maps would commit 8 × 2 × 841600 × 4 B
// ≈ 54 MiB here.
TEST(LspiTest, SlotMapsStayLazyThroughUpdateAndRestore) {
#if !defined(__linux__)
  GTEST_SKIP() << "resident memory is read from /proc/self/statm";
#else
  if (MEGH_RSS_TEST_DISABLED) {
    GTEST_SKIP() << "AddressSanitizer shadow memory dominates resident size";
  }
  if (thp_always()) {
    GTEST_SKIP() << "transparent huge pages are on for every mapping";
  }
  const std::int64_t dim = 841600;  // the paper's PlanetLab d = 1052 x 800
  const double before = resident_bytes();
  std::vector<std::unique_ptr<LspiLearner>> learners;
  for (int k = 0; k < 8; ++k) {
    learners.push_back(std::make_unique<LspiLearner>(dim, 0.5));
    learners.back()->update(1000 * k, 1.0, dim - 1 - 1000 * k);
  }
  for (auto& learner : learners) {
    learner->restore(learner->B(), learner->z(), learner->theta());
  }
  const double grown_mib = (resident_bytes() - before) / (1024.0 * 1024.0);
  EXPECT_LT(grown_mib, 8.0);
  for (const auto& learner : learners) {
    EXPECT_EQ(learner->updates(), 1);
    EXPECT_EQ(learner->theta_nnz(), 1u);
  }
#endif
}

}  // namespace
}  // namespace megh
