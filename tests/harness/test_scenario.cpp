#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/sla.hpp"
#include "trace/trace_stats.hpp"

namespace megh {
namespace {

TEST(ScenarioTest, PlanetLabShapeAndMix) {
  const Scenario s = make_planetlab_scenario(20, 30, 50, 1);
  EXPECT_EQ(s.hosts.size(), 20u);
  EXPECT_EQ(s.vms.size(), 30u);
  EXPECT_EQ(s.trace.num_vms(), 30);
  EXPECT_EQ(s.trace.num_steps(), 50);
  int g4 = 0;
  for (const auto& h : s.hosts) {
    if (h.model == "HP ProLiant ML110 G4") ++g4;
  }
  EXPECT_EQ(g4, 10);
}

TEST(ScenarioTest, GoogleCarriesTaskDurations) {
  const Scenario s = make_google_scenario(10, 20, 50, 2);
  EXPECT_FALSE(s.task_durations_s.empty());
  EXPECT_EQ(s.name, "GoogleCluster");
}

TEST(ScenarioTest, DeterministicForSeed) {
  const Scenario a = make_planetlab_scenario(10, 12, 30, 7);
  const Scenario b = make_planetlab_scenario(10, 12, 30, 7);
  for (int vm = 0; vm < 12; ++vm) {
    EXPECT_DOUBLE_EQ(a.vms[static_cast<std::size_t>(vm)].ram_mb,
                     b.vms[static_cast<std::size_t>(vm)].ram_mb);
    EXPECT_DOUBLE_EQ(a.trace.at(vm, 10), b.trace.at(vm, 10));
  }
}

TEST(SubsetScenarioTest, KeepsHostMixAndTraceAlignment) {
  const Scenario base = make_planetlab_scenario(40, 60, 30, 1);
  const Scenario sub = subset_scenario(base, 10, 15, 5);
  EXPECT_EQ(sub.hosts.size(), 10u);
  EXPECT_EQ(sub.vms.size(), 15u);
  EXPECT_EQ(sub.trace.num_vms(), 15);
  int g4 = 0;
  for (const auto& h : sub.hosts) {
    if (h.model == "HP ProLiant ML110 G4") ++g4;
  }
  EXPECT_EQ(g4, 5);
}

TEST(SubsetScenarioTest, OutOfRangeRejected) {
  const Scenario base = make_planetlab_scenario(10, 10, 10, 1);
  EXPECT_THROW(subset_scenario(base, 20, 5, 1), ConfigError);
  EXPECT_THROW(subset_scenario(base, 5, 20, 1), ConfigError);
}

TEST(BuildDatacenterTest, AllVmsPlaced) {
  const Scenario s = make_planetlab_scenario(20, 30, 10, 1);
  const Datacenter dc = build_datacenter(s, InitialPlacement::kRandom, 3);
  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    EXPECT_NE(dc.host_of(vm), kUnplaced);
  }
}

TEST(DefaultSimConfigTest, PaperConstants) {
  const SimulationConfig config = default_sim_config(0.02);
  EXPECT_DOUBLE_EQ(config.interval_s, 300.0);
  EXPECT_DOUBLE_EQ(config.max_migration_fraction, 0.02);
  EXPECT_DOUBLE_EQ(kEnergyPriceUsdPerKwh, 0.18675);
  EXPECT_DOUBLE_EQ(kVmPriceUsdPerHour, 1.2);
  EXPECT_DOUBLE_EQ(config.cost.beta_overload, 0.70);
}

TEST(ScenarioTest, GoogleVmsFitTheFleet) {
  // The Google setup must be RAM-feasible (2000 VMs on 500 hosts at paper
  // scale); check the proportional small configuration.
  const Scenario s = make_google_scenario(25, 100, 10, 2);
  double vm_ram = 0.0, host_ram = 0.0;
  for (const auto& vm : s.vms) vm_ram += vm.ram_mb;
  for (const auto& h : s.hosts) host_ram += h.ram_mb;
  EXPECT_LT(vm_ram, host_ram * 0.8);
}

}  // namespace
}  // namespace megh
