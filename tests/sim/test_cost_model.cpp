#include "sim/cost_model.hpp"

#include <gtest/gtest.h>

#include "sim/datacenter.hpp"

namespace megh {
namespace {

TEST(CostConfigTest, DefaultsValidate) {
  CostConfig c;
  EXPECT_NO_THROW(c.validate());
}

TEST(CostConfigTest, BadConfigsRejected) {
  CostConfig c;
  c.beta_overload = 0.0;
  EXPECT_THROW(c.validate(), ConfigError);
  c.beta_overload = 1.5;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(EnergyCostTest, KilowattHourArithmetic) {
  // 1000 W for one hour = 1 kWh at the paper's 0.18675 USD/kWh.
  EXPECT_NEAR(energy_cost_usd(1000.0, 3600.0), 0.18675, 1e-12);
  // Linear in both watts and seconds.
  EXPECT_NEAR(energy_cost_usd(500.0, 7200.0), 0.18675, 1e-12);
}

TEST(DatacenterPowerTest, SleepingHostsDrawSleepPower) {
  std::vector<HostSpec> hosts{hp_proliant_g4_spec(), hp_proliant_g5_spec()};
  std::vector<VmSpec> vms{{1000.0, 512.0, 100.0}};
  Datacenter dc(std::move(hosts), std::move(vms));
  dc.place(0, 0);
  const std::vector<double> demands{0.0};
  dc.set_demands(demands);
  // Host 0 active at 0% (86 W), host 1 asleep (0 W).
  EXPECT_NEAR(datacenter_power_watts(dc), 86.0, 1e-9);
}

TEST(DatacenterPowerTest, LoadRaisesPower) {
  std::vector<HostSpec> hosts{hp_proliant_g4_spec()};
  std::vector<VmSpec> vms{{3720.0, 512.0, 100.0}};
  Datacenter dc(std::move(hosts), std::move(vms));
  dc.place(0, 0);
  std::vector<double> demands{1.0};
  dc.set_demands(demands);
  EXPECT_NEAR(datacenter_power_watts(dc), 117.0, 1e-9);  // full load
  demands[0] = 0.5;
  dc.set_demands(demands);
  EXPECT_NEAR(datacenter_power_watts(dc), 102.0, 1e-9);  // 50% knot
}

TEST(DatacenterPowerTest, OversubscribedHostCapsAtFullLoadPower) {
  std::vector<HostSpec> hosts{hp_proliant_g4_spec()};
  std::vector<VmSpec> vms{{2500.0, 512.0, 100.0}, {2500.0, 512.0, 100.0}};
  Datacenter dc(std::move(hosts), std::move(vms));
  dc.place(0, 0);
  dc.place(1, 0);
  const std::vector<double> demands{1.0, 1.0};  // 134% demanded
  dc.set_demands(demands);
  EXPECT_NEAR(datacenter_power_watts(dc), 117.0, 1e-9);
}

TEST(IntervalEnergyCostTest, MatchesManualComputation) {
  std::vector<HostSpec> hosts{hp_proliant_g4_spec()};
  std::vector<VmSpec> vms{{1000.0, 512.0, 100.0}};
  Datacenter dc(std::move(hosts), std::move(vms));
  dc.place(0, 0);
  const std::vector<double> demands{0.0};
  dc.set_demands(demands);
  const double expected = energy_cost_usd(86.0, 300.0);
  EXPECT_NEAR(interval_energy_cost_usd(dc, 300.0), expected, 1e-15);
}

}  // namespace
}  // namespace megh
