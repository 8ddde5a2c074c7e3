#include "core/boltzmann.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"

namespace megh {
namespace {

/// Selection weights through the buffer-reusing overload the policy runs.
std::vector<double> weights_of(const BoltzmannSelector& sel,
                               const std::vector<double>& q) {
  std::vector<double> w;
  sel.weights(q, w);
  return w;
}

/// One Boltzmann draw as Megh's coordinator makes it: the weights, then
/// Rng::weighted_index over them.
std::size_t draw(const BoltzmannSelector& sel, const std::vector<double>& q,
                 Rng& rng) {
  return rng.weighted_index(weights_of(sel, q));
}

TEST(BoltzmannTest, WeightsAreOneForMinAndBelowOneOtherwise) {
  BoltzmannSelector sel(1.0, 0.0);
  const std::vector<double> q{3.0, 1.0, 2.0};
  const auto w = weights_of(sel, q);
  EXPECT_DOUBLE_EQ(w[1], 1.0);  // the minimum
  EXPECT_LT(w[0], w[2]);        // higher cost → smaller weight
  EXPECT_LT(w[2], 1.0);
}

TEST(BoltzmannTest, HighTemperatureIsNearUniform) {
  BoltzmannSelector sel(1e6, 0.0);
  const std::vector<double> q{0.0, 5.0, 10.0};
  const auto w = weights_of(sel, q);
  EXPECT_NEAR(w[0], w[2], 1e-4);
}

TEST(BoltzmannTest, LowTemperatureIsGreedy) {
  BoltzmannSelector sel(1e-9, 0.0);
  const std::vector<double> q{0.5, 0.1, 0.9};
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(draw(sel, q, rng), 1u);
  }
}

TEST(BoltzmannTest, SamplingFollowsWeights) {
  BoltzmannSelector sel(1.0, 0.0);
  const std::vector<double> q{0.0, std::log(4.0)};  // weights 1 and 1/4
  Rng rng(2);
  int counts[2] = {0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[draw(sel, q, rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 4.0, 0.4);
}

TEST(BoltzmannTest, DecayMatchesAlgorithmTwo) {
  BoltzmannSelector sel(3.0, 0.01);
  sel.decay();
  EXPECT_NEAR(sel.temperature(), 3.0 * std::exp(-0.01), 1e-12);
  for (int i = 0; i < 99; ++i) sel.decay();
  EXPECT_NEAR(sel.temperature(), 3.0 * std::exp(-1.0), 1e-9);
}

TEST(BoltzmannTest, GreedyPicksMinimum) {
  const std::vector<double> q{2.0, -1.0, 0.0};
  EXPECT_EQ(BoltzmannSelector::greedy(q), 1u);
}

TEST(BoltzmannTest, FullyDecayedTemperatureStillSamples) {
  BoltzmannSelector sel(3.0, 0.5);
  for (int i = 0; i < 200; ++i) sel.decay();  // temp ~ 3e-44
  const std::vector<double> q{1.0, 0.5, 2.0};
  Rng rng(3);
  EXPECT_EQ(draw(sel, q, rng), 1u);  // the greedy indicator, no NaNs
}

TEST(BoltzmannTest, NonFiniteQValuesAreUnselectable) {
  BoltzmannSelector sel(1.0, 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> q{nan, 0.5, inf, 1.0, -inf};
  const auto w = weights_of(sel, q);
  EXPECT_EQ(w[0], 0.0);
  EXPECT_EQ(w[2], 0.0);
  EXPECT_EQ(w[4], 0.0);  // -inf is not a minimum either
  EXPECT_DOUBLE_EQ(w[1], 1.0);  // finite minimum still gets weight 1
  EXPECT_GT(w[3], 0.0);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const auto pick = draw(sel, q, rng);
    EXPECT_TRUE(pick == 1u || pick == 3u);
  }
  EXPECT_EQ(BoltzmannSelector::greedy(q), 1u);
}

TEST(BoltzmannTest, AllNonFiniteQFallsBackToFirstAction) {
  BoltzmannSelector sel(1.0, 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& q :
       {std::vector<double>{nan, nan}, std::vector<double>{inf, -inf, nan}}) {
    const auto w = weights_of(sel, q);
    ASSERT_EQ(w.size(), q.size());
    for (const double x : w) EXPECT_EQ(x, 0.0);  // nothing is drawable
    EXPECT_EQ(BoltzmannSelector::greedy(q), 0u);  // greedy falls to index 0
  }
}

TEST(BoltzmannTest, FullyDecayedTemperatureWeightsAreGreedyIndicator) {
  BoltzmannSelector sel(3.0, 0.5);
  for (int i = 0; i < 500; ++i) sel.decay();  // temp underflows to ~0
  const std::vector<double> q{1.0, 0.5, 2.0};
  const auto w = weights_of(sel, q);
  EXPECT_DOUBLE_EQ(w[1], 1.0);  // the minimum keeps weight 1
  EXPECT_EQ(w[0], 0.0);         // everything else collapses to 0
  EXPECT_EQ(w[2], 0.0);
  for (double x : w) EXPECT_TRUE(std::isfinite(x));
}

TEST(BoltzmannTest, InvalidConfigRejected) {
  EXPECT_THROW(BoltzmannSelector(0.0, 0.01), ConfigError);
  EXPECT_THROW(BoltzmannSelector(1.0, -0.1), ConfigError);
}

TEST(BoltzmannTest, EqualQValuesUniform) {
  BoltzmannSelector sel(0.001, 0.0);  // even at tiny temperature
  const std::vector<double> q{1.0, 1.0, 1.0};
  Rng rng(4);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[draw(sel, q, rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 700);
}

}  // namespace
}  // namespace megh
