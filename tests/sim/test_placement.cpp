#include "sim/placement.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace megh {
namespace {

Datacenter make_dc(int hosts, std::vector<VmSpec> vms) {
  return Datacenter(standard_host_fleet(hosts), std::move(vms));
}

TEST(PlaceInitialTest, RoundRobinSpreads) {
  Datacenter dc = make_dc(4, {{1000, 512, 100},
                              {1000, 512, 100},
                              {1000, 512, 100},
                              {1000, 512, 100}});
  Rng rng(1);
  place_initial(dc, InitialPlacement::kRoundRobin, rng);
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(dc.vms_on(h).size(), 1u);
  }
}

TEST(PlaceInitialTest, FirstFitPacks) {
  Datacenter dc = make_dc(4, {{1000, 512, 100},
                              {1000, 512, 100},
                              {1000, 512, 100}});
  Rng rng(1);
  place_initial(dc, InitialPlacement::kFirstFit, rng);
  EXPECT_EQ(dc.vms_on(0).size(), 3u);
  EXPECT_EQ(dc.active_host_count(), 1);
}

TEST(PlaceInitialTest, RandomIsFeasibleAndDeterministicPerSeed) {
  std::vector<VmSpec> vms(20, VmSpec{1000, 1024, 100});
  Datacenter a = make_dc(10, vms);
  Datacenter b = make_dc(10, vms);
  Rng r1(5), r2(5);
  place_initial(a, InitialPlacement::kRandom, r1);
  place_initial(b, InitialPlacement::kRandom, r2);
  for (int vm = 0; vm < 20; ++vm) {
    EXPECT_EQ(a.host_of(vm), b.host_of(vm));
    EXPECT_NE(a.host_of(vm), kUnplaced);
  }
}

TEST(PlaceInitialTest, ImpossibleFitThrows) {
  // One host, two VMs that cannot share 4 GB.
  Datacenter dc = make_dc(1, {{1000, 2500, 100}, {1000, 2500, 100}});
  Rng rng(1);
  EXPECT_THROW(place_initial(dc, InitialPlacement::kFirstFit, rng),
               ConfigError);
}

TEST(PowerIncreaseTest, WakingAHostCostsIdlePower) {
  Datacenter dc = make_dc(2, {{1000, 512, 100}});
  const std::vector<double> demands{0.0};
  dc.set_demands(demands);
  // Host 0 (G4) is asleep: adding an idle VM costs the full idle draw.
  EXPECT_NEAR(power_increase_watts(dc, 0, 0), 86.0, 1e-9);
}

TEST(PabfdTest, PrefersActiveHostWithSmallestPowerIncrease) {
  // Host 0 (G4) active; host 1 (G5) asleep; host 2 (G4) active and busier.
  Datacenter dc = make_dc(4, {{1860, 512, 100},
                              {1860, 512, 100},
                              {1860, 512, 100},
                              {1000, 512, 100}});
  dc.place(0, 0);
  dc.place(1, 2);
  dc.place(2, 2);
  const std::vector<double> demands{0.3, 0.5, 0.5, 0.4};
  dc.set_demands(demands);
  // VM 3 should go to an *active* host even though waking the sleeping G5
  // could have a flatter marginal curve; among active hosts it picks the
  // one with the smaller power increase.
  const auto target = find_pabfd_target(dc, 3, 1.0);
  ASSERT_TRUE(target.has_value());
  EXPECT_TRUE(*target == 0 || *target == 2);
  const double inc_chosen = power_increase_watts(dc, 3, *target);
  const double inc_other = power_increase_watts(dc, 3, *target == 0 ? 2 : 0);
  EXPECT_LE(inc_chosen, inc_other + 1e-12);
}

TEST(PabfdTest, RespectsUtilizationCeiling) {
  Datacenter dc = make_dc(2, {{3720, 512, 100}, {1000, 512, 100}});
  dc.place(0, 0);
  const std::vector<double> demands{0.65, 1.0};
  dc.set_demands(demands);
  // Host 0 at 65%; adding VM 1 (1000 MIPS ≈ 27%) would exceed a 70% cap,
  // so PABFD must wake host 1 instead.
  const auto target = find_pabfd_target(dc, 1, 0.7);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 1);
}

TEST(PabfdTest, ExclusionHonored) {
  Datacenter dc = make_dc(2, {{1000, 512, 100}, {500, 512, 100}});
  dc.place(0, 0);
  const std::vector<double> demands{0.1, 0.1};
  dc.set_demands(demands);
  const std::vector<int> exclude{0};
  const auto target = find_pabfd_target(dc, 1, 1.0, exclude);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 1);
}

TEST(PabfdTest, NothingFitsReturnsNullopt) {
  Datacenter dc = make_dc(1, {{1000, 4000, 100}, {1000, 4000, 100}});
  dc.place(0, 0);
  const std::vector<double> demands{0.1, 0.1};
  dc.set_demands(demands);
  EXPECT_FALSE(find_pabfd_target(dc, 1, 1.0).has_value());
}

}  // namespace
}  // namespace megh
