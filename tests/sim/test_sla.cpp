#include "sim/sla.hpp"

#include <gtest/gtest.h>

namespace megh {
namespace {

CostConfig windowed_config() {
  CostConfig c;
  c.sla_accounting = SlaAccounting::kWindowed;
  return c;
}

TEST(SlaTest, NoDowntimeNoCost) {
  SlaAccountant sla(3, windowed_config());
  for (int step = 0; step < 10; ++step) {
    sla.begin_interval(300.0);
    EXPECT_DOUBLE_EQ(sla.settle_interval(), 0.0);
  }
  EXPECT_EQ(sla.tier(0), 0);
  EXPECT_DOUBLE_EQ(sla.total_sla_cost(), 0.0);
}

TEST(SlaTest, WindowedTierSelection) {
  SlaAccountant sla(1, windowed_config());
  sla.begin_interval(300.0);
  // One interval elapsed so far: 1 s / 300 s = 0.333% > 0.1% → tier 2.
  sla.add_overload_downtime(0, 1.0);
  EXPECT_EQ(sla.tier(0), 2);
  // 0.2 s / 300 s = 0.0667% ∈ (0.05%, 0.1%] → tier 1 for a fresh VM set.
  SlaAccountant sla2(1, windowed_config());
  sla2.begin_interval(300.0);
  sla2.add_overload_downtime(0, 0.2);
  EXPECT_EQ(sla2.tier(0), 1);
}

TEST(SlaTest, WindowedPercentUsesElapsedWindow) {
  SlaAccountant sla(1, windowed_config());
  sla.begin_interval(300.0);
  sla.add_overload_downtime(0, 3.0);
  // Only one interval elapsed: window_requested = 300 s → 1%.
  EXPECT_NEAR(sla.windowed_downtime_pct(0), 1.0, 1e-9);
  sla.settle_interval();
  sla.begin_interval(300.0);
  // Second interval, no new downtime: 3 / 600 = 0.5%.
  EXPECT_NEAR(sla.windowed_downtime_pct(0), 0.5, 1e-9);
}

TEST(SlaTest, WindowedDowntimeExpires) {
  SlaAccountant sla(1, windowed_config());
  sla.begin_interval(300.0);
  sla.add_overload_downtime(0, 10.0);
  sla.settle_interval();
  // The downtime stays in the window for its full length...
  for (int i = 1; i < kSlaWindowSteps; ++i) {
    sla.begin_interval(300.0);
    sla.settle_interval();
    EXPECT_GT(sla.windowed_downtime_pct(0), 0.0) << "interval " << i;
  }
  // ...and the next interval overwrites its slot.
  sla.begin_interval(300.0);
  sla.settle_interval();
  EXPECT_DOUBLE_EQ(sla.windowed_downtime_pct(0), 0.0);
  EXPECT_EQ(sla.tier(0), 0);
}

TEST(SlaTest, WindowedCostChargesTierFractionPerInterval) {
  SlaAccountant sla(1, windowed_config());
  sla.begin_interval(300.0);
  // Drive into tier 2: > 0.1% of 300 s = 0.3 s.
  sla.add_overload_downtime(0, 300.0);
  const double cost = sla.settle_interval();
  const double interval_revenue = kVmPriceUsdPerHour * 300.0 / 3600.0;
  EXPECT_NEAR(cost, kTier2Fraction * interval_revenue, 1e-12);
}

TEST(SlaTest, CumulativeModeLevelsAreAbsorbing) {
  CostConfig c = windowed_config();
  c.sla_accounting = SlaAccounting::kCumulative;
  SlaAccountant sla(1, c);
  sla.begin_interval(300.0);
  sla.add_overload_downtime(0, 300.0);  // 100% downtime → tier 2
  const double first = sla.settle_interval();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(sla.tier(0), 2);
  // Level grows with requested time, so later intervals keep charging the
  // delta even with no new downtime (absorbing tier).
  sla.begin_interval(300.0);
  const double second = sla.settle_interval();
  EXPECT_GT(second, 0.0);
  EXPECT_LT(second, first + 1e-12);
}

TEST(SlaTest, CumulativeLevelNeverCharged_Negative) {
  CostConfig c = windowed_config();
  c.sla_accounting = SlaAccounting::kCumulative;
  SlaAccountant sla(1, c);
  // Tier rises then percentage dilutes below threshold: ΔC_v must clamp ≥ 0.
  sla.begin_interval(300.0);
  sla.add_overload_downtime(0, 0.2);  // 0.0667% → tier 1
  EXPECT_GT(sla.settle_interval(), 0.0);
  double total = 0.0;
  for (int i = 0; i < 10; ++i) {
    sla.begin_interval(300.0);
    total = sla.settle_interval();
    EXPECT_GE(total, 0.0);
  }
}

TEST(SlaTest, MigrationDowntimeScaledByFraction) {
  SlaAccountant sla(1, windowed_config());
  sla.begin_interval(300.0);
  sla.add_migration_downtime(0, 10.0);
  // 10 s of copy time at the 2% fraction is 0.2 s of downtime.
  EXPECT_NEAR(sla.downtime_s(0), 0.2, 1e-12);
  EXPECT_NEAR(sla.migration_downtime_s(0), 0.2, 1e-12);
}

TEST(SlaTest, OverloadDowntimeBinaryMode) {
  CostConfig c = windowed_config();
  c.overload_mode = OverloadDowntimeMode::kBinary;
  SlaAccountant sla(1, c);
  EXPECT_DOUBLE_EQ(sla.overload_downtime_s(0.69, 300.0), 0.0);
  EXPECT_DOUBLE_EQ(sla.overload_downtime_s(0.71, 300.0), 300.0);
  EXPECT_DOUBLE_EQ(sla.overload_downtime_s(1.5, 300.0), 300.0);
}

TEST(SlaTest, OverloadDowntimeExcessModeIsGraded) {
  SlaAccountant sla(1, windowed_config());  // kExcess default
  EXPECT_DOUBLE_EQ(sla.overload_downtime_s(0.70, 300.0), 0.0);
  EXPECT_NEAR(sla.overload_downtime_s(0.85, 300.0), 150.0, 1e-9);
  EXPECT_DOUBLE_EQ(sla.overload_downtime_s(1.0, 300.0), 300.0);
  EXPECT_DOUBLE_EQ(sla.overload_downtime_s(2.0, 300.0), 300.0);  // clipped
}

TEST(SlaTest, TierPopulationCount) {
  SlaAccountant sla(3, windowed_config());
  sla.begin_interval(300.0);
  sla.add_overload_downtime(1, 300.0);  // tier 2
  sla.add_overload_downtime(2, 0.2);    // 0.067% → tier 1
  EXPECT_EQ(sla.num_vms_in_tier(0), 1);
  EXPECT_EQ(sla.num_vms_in_tier(1), 1);
  EXPECT_EQ(sla.num_vms_in_tier(2), 1);
}

TEST(SlaTest, RequestedTimeAccumulates) {
  SlaAccountant sla(2, windowed_config());
  for (int i = 0; i < 3; ++i) {
    sla.begin_interval(300.0);
    sla.settle_interval();
  }
  EXPECT_DOUBLE_EQ(sla.requested_s(0), 900.0);
  EXPECT_DOUBLE_EQ(sla.requested_s(1), 900.0);
}

}  // namespace
}  // namespace megh
