#include "baselines/mmt_policy.hpp"

#include <gtest/gtest.h>

#include "baselines/simple_policies.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

struct World {
  Datacenter dc;
  TraceTable trace;
};

World steady_world(int hosts, int vms, int steps, double util) {
  std::vector<VmSpec> specs(static_cast<std::size_t>(vms),
                            VmSpec{2000.0, 512.0, 100.0});
  Datacenter dc(standard_host_fleet(hosts), specs);
  Rng rng(1);
  place_initial(dc, InitialPlacement::kRoundRobin, rng);
  TraceTable trace(vms, steps);
  for (int vm = 0; vm < vms; ++vm) {
    for (int s = 0; s < steps; ++s) trace.set(vm, s, util);
  }
  return {std::move(dc), std::move(trace)};
}

TEST(MmtPolicyTest, NamesComposeDetectorAndSelection) {
  EXPECT_EQ(make_thr_mmt()->name(), "THR-MMT");
  EXPECT_EQ(make_iqr_mmt()->name(), "IQR-MMT");
  EXPECT_EQ(make_mad_mmt()->name(), "MAD-MMT");
  EXPECT_EQ(make_lr_mmt()->name(), "LR-MMT");
  EXPECT_EQ(make_lrr_mmt()->name(), "LRR-MMT");
}

TEST(MmtPolicyTest, EvacuatesOverloadedHost) {
  // Two 2000-MIPS VMs at 80% on one G4 host (3720): util = 0.86 > 0.7.
  World w = steady_world(4, 2, 1, 0.8);
  // Repack both VMs onto host 0 to force the overload.
  Datacenter dc = std::move(w.dc);
  if (dc.host_of(1) != 0) {
    dc.migrate(1, 0);
  }
  Simulation sim(std::move(dc), w.trace, SimulationConfig{});
  auto policy = make_thr_mmt();
  const SimulationResult r = sim.run(*policy);
  EXPECT_GE(r.steps[0].migrations, 1);
  // Post-migration the host must no longer be overloaded.
  EXPECT_EQ(r.steps[0].overloaded_hosts, 0);
}

TEST(MmtPolicyTest, QuietSystemUnderThresholdNoOverloadMigrations) {
  // One 2000-MIPS VM at 90% per host: G4 hosts run at 48%, G5 hosts at
  // 34% — above the underload threshold and under THR, so neither phase
  // fires.
  World w = steady_world(4, 4, 5, 0.9);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  auto policy = make_thr_mmt();
  const SimulationResult r = sim.run(*policy);
  EXPECT_EQ(r.totals.migrations, 0);
  EXPECT_EQ(r.steps.back().active_hosts, 4);
}

TEST(MmtPolicyTest, UnderloadPhaseConsolidatesAndSleepsHosts) {
  World w = steady_world(6, 6, 10, 0.05);  // all hosts nearly idle
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  auto policy = make_thr_mmt();
  const SimulationResult r = sim.run(*policy);
  EXPECT_GT(r.totals.migrations, 0);
  EXPECT_LT(r.steps.back().active_hosts, 6);
}

TEST(MmtPolicyTest, UnderloadEvacuationCapRespected) {
  // 5% of 40 hosts: at most two evacuations per step, though all 40 hosts
  // are nearly idle.
  World w = steady_world(40, 40, 1, 0.05);
  auto policy = make_thr_mmt();
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(*policy);
  // Two evacuations of a 1-VM host = at most 2 migrations in step 0.
  EXPECT_GT(r.steps[0].migrations, 0);
  EXPECT_LE(r.steps[0].migrations, 2);
}

TEST(MmtPolicyTest, StatsSplitOverloadAndUnderload) {
  World w = steady_world(6, 6, 10, 0.05);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  auto policy = make_thr_mmt();
  const SimulationResult r = sim.run(*policy);
  const auto& stats = r.steps.back().policy_stats;
  ASSERT_TRUE(stats.count("underload_migrations"));
  ASSERT_TRUE(stats.count("overload_migrations"));
  EXPECT_GT(stats.at("underload_migrations"), 0.0);
}

TEST(MmtPolicyTest, AllVariantsRunOnBurstyTrace) {
  PlanetLabSynthConfig tc;
  tc.num_vms = 12;
  tc.num_steps = 40;
  const TraceTable trace = generate_planetlab(tc);
  for (auto factory : {&make_iqr_mmt, &make_mad_mmt, &make_lr_mmt,
                       &make_lrr_mmt}) {
    Rng rng(2);
    std::vector<VmSpec> specs = sample_vm_fleet(12, rng);
    Datacenter dc(standard_host_fleet(8), specs);
    place_initial(dc, InitialPlacement::kRandom, rng);
    Simulation sim(std::move(dc), trace, SimulationConfig{});
    auto policy = (*factory)(7);
    const SimulationResult r = sim.run(*policy);
    EXPECT_EQ(r.totals.steps, 40) << policy->name();
    EXPECT_TRUE(std::isfinite(r.totals.total_cost_usd)) << policy->name();
  }
}

TEST(MmtPolicyTest, InvalidConfigRejected) {
  MmtConfig config;
  config.thr_threshold = 0.0;
  EXPECT_THROW(MmtPolicy{config}, ConfigError);
  config.thr_threshold = 1.5;
  EXPECT_THROW(MmtPolicy{config}, ConfigError);
}

}  // namespace
}  // namespace megh
