#include "sim/power_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace megh {
namespace {

TEST(PowerModelTest, TableEndpointsMatchPaperTable1) {
  const PowerModel g4 = hp_proliant_g4_power();
  EXPECT_DOUBLE_EQ(g4.watts(0.0), 86.0);
  EXPECT_DOUBLE_EQ(g4.watts(1.0), 117.0);
  const PowerModel g5 = hp_proliant_g5_power();
  EXPECT_DOUBLE_EQ(g5.watts(0.0), 93.7);
  EXPECT_DOUBLE_EQ(g5.watts(1.0), 135.0);
}

TEST(PowerModelTest, KnotsMatchExactly) {
  const PowerModel g4 = hp_proliant_g4_power();
  const double expected[11] = {86,  89.4, 92.6, 96,  99.5, 102,
                               106, 108,  112,  114, 117};
  for (int i = 0; i <= 10; ++i) {
    EXPECT_DOUBLE_EQ(g4.watts(i / 10.0), expected[i]) << "knot " << i;
  }
}

TEST(PowerModelTest, LinearInterpolationBetweenKnots) {
  const PowerModel g4 = hp_proliant_g4_power();
  // Between 0% (86) and 10% (89.4): midpoint 5% → 87.7.
  EXPECT_NEAR(g4.watts(0.05), 87.7, 1e-9);
  // Between 90% (114) and 100% (117): 95% → 115.5.
  EXPECT_NEAR(g4.watts(0.95), 115.5, 1e-9);
}

TEST(PowerModelTest, ClampsOutOfRangeUtilization) {
  const PowerModel g5 = hp_proliant_g5_power();
  EXPECT_DOUBLE_EQ(g5.watts(-0.5), 93.7);
  EXPECT_DOUBLE_EQ(g5.watts(1.8), 135.0);
}

class MonotonicityProperty : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityProperty, PowerIsNonDecreasingInLoad) {
  const PowerModel model =
      GetParam() == 0 ? hp_proliant_g4_power() : hp_proliant_g5_power();
  double prev = model.watts(0.0);
  for (int i = 1; i <= 200; ++i) {
    const double w = model.watts(i / 200.0);
    EXPECT_GE(w, prev - 1e-12);
    prev = w;
  }
}

INSTANTIATE_TEST_SUITE_P(BothServers, MonotonicityProperty,
                         ::testing::Values(0, 1));

/// The interpolation as written with std::floor, kept as the reference
/// the truncating watts() must match bit for bit.
double floor_form_watts(const PowerModel& model, double utilization) {
  const auto& table = model.table();
  const double u = std::clamp(utilization, 0.0, 1.0);
  const double pos = u * 10.0;
  const int lo = static_cast<int>(std::floor(pos));
  if (lo >= 10) return table[10];
  const double frac = pos - lo;
  return table[static_cast<std::size_t>(lo)] * (1.0 - frac) +
         table[static_cast<std::size_t>(lo) + 1] * frac;
}

TEST(PowerModelTest, TruncationMatchesFloorForm) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> sweep = {0.0,  -0.0, 1.0,  -1e-300, -0.5,
                               -inf, 1.5,  1e300, inf};
  for (int i = 0; i <= 10; ++i) {
    const double knot = i / 10.0;
    sweep.push_back(knot);
    sweep.push_back(std::nextafter(knot, -1.0));
    sweep.push_back(std::nextafter(knot, 2.0));
  }
  for (int i = 0; i <= 10'000; ++i) sweep.push_back(i / 10'000.0);
  for (const PowerModel& model :
       {hp_proliant_g4_power(), hp_proliant_g5_power()}) {
    for (const double u : sweep) {
      EXPECT_EQ(model.watts(u), floor_form_watts(model, u))
          << model.name() << " at " << u;
    }
  }
}

TEST(PowerModelTest, SleepWattsDefaultZero) {
  EXPECT_DOUBLE_EQ(hp_proliant_g4_power().sleep_watts(), 0.0);
}

TEST(PowerModelTest, DecreasingTableRejected) {
  EXPECT_THROW(PowerModel("bad", {10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}),
               ConfigError);
}

TEST(PowerModelTest, NegativeSleepRejected) {
  EXPECT_THROW(
      PowerModel("bad", {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, -5.0),
      ConfigError);
}

}  // namespace
}  // namespace megh
