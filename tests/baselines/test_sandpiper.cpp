#include "baselines/sandpiper.hpp"

#include <gtest/gtest.h>

#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

TEST(SandpiperVolumeTest, GrowsWithBothResources) {
  EXPECT_NEAR(sandpiper_volume(0.0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(sandpiper_volume(0.5, 0.0), 2.0, 1e-12);
  EXPECT_NEAR(sandpiper_volume(0.5, 0.5), 4.0, 1e-12);
  EXPECT_GT(sandpiper_volume(0.9, 0.2), sandpiper_volume(0.8, 0.2));
}

TEST(SandpiperVolumeTest, SaturatedResourcesStayFinite) {
  EXPECT_TRUE(std::isfinite(sandpiper_volume(1.0, 1.0)));
  EXPECT_TRUE(std::isfinite(sandpiper_volume(2.0, 0.5)));  // oversubscribed
}

struct World {
  Datacenter dc;
  TraceTable trace;
};

World hotspot_world(int sustain_for_steps) {
  // Host 0 overloaded from step 0; hosts 1..3 idle-capable targets.
  std::vector<VmSpec> specs{{2500, 512, 100},   // heavy, small RAM
                            {2500, 2048, 100},  // heavy, big RAM
                            {500, 512, 100}};
  Datacenter dc(standard_host_fleet(4), specs);
  dc.place(0, 0);
  dc.place(1, 0);
  dc.place(2, 1);
  TraceTable trace(3, sustain_for_steps + 4);
  for (int s = 0; s < trace.num_steps(); ++s) {
    trace.set(0, s, 0.9);
    trace.set(1, s, 0.9);
    trace.set(2, s, 0.1);
  }
  return {std::move(dc), std::move(trace)};
}

TEST(SandpiperPolicyTest, WaitsForSustainedOverload) {
  constexpr int kSustain = SandpiperPolicy::kSustainSteps;
  World w = hotspot_world(kSustain);
  SandpiperPolicy policy;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  for (int s = 0; s + 1 < kSustain; ++s) {
    EXPECT_EQ(r.steps[static_cast<std::size_t>(s)].migrations, 0) << s;
  }
  // The kSustain-th consecutive hot observation triggers the move.
  EXPECT_GE(r.steps[kSustain - 1].migrations, 1);
}

TEST(SandpiperPolicyTest, MovesHighestVolumeToSizeVm) {
  // Both VMs on the hotspot have the same utilization; the 512-MB one has
  // the 4x higher volume-to-size ratio and must be chosen.
  World w = hotspot_world(SandpiperPolicy::kSustainSteps);
  SandpiperPolicy policy;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  sim.run(policy, SandpiperPolicy::kSustainSteps);
  EXPECT_NE(sim.datacenter().host_of(0), 0);  // small-RAM VM moved
  EXPECT_EQ(sim.datacenter().host_of(1), 0);  // big one stayed
}

TEST(SandpiperPolicyTest, TransientSpikeIgnored) {
  std::vector<VmSpec> specs{{2500, 512, 100}, {2500, 512, 100}};
  Datacenter dc(standard_host_fleet(3), specs);
  dc.place(0, 0);
  dc.place(1, 0);
  TraceTable trace(2, 6);
  for (int s = 0; s < 6; ++s) {
    // Alternate hot/cold: the streak never reaches 2.
    const double u = s % 2 == 0 ? 0.9 : 0.1;
    trace.set(0, s, u);
    trace.set(1, s, u);
  }
  SandpiperPolicy policy;  // sustain of 2 steps
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.totals.migrations, 0);
}

TEST(SandpiperPolicyTest, NeverConsolidatesIdleHosts) {
  // All hosts lightly loaded: Sandpiper must do nothing (it only fights
  // hotspots — the contrast with MMT's underload phase).
  std::vector<VmSpec> specs(4, VmSpec{1000, 512, 100});
  Datacenter dc(standard_host_fleet(4), specs);
  Rng rng(1);
  place_initial(dc, InitialPlacement::kRoundRobin, rng);
  TraceTable trace(4, 10);
  for (int vm = 0; vm < 4; ++vm) {
    for (int s = 0; s < 10; ++s) trace.set(vm, s, 0.1);
  }
  SandpiperPolicy policy;
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.totals.migrations, 0);
  EXPECT_EQ(r.steps.back().active_hosts, 4);
}

TEST(SandpiperPolicyTest, RunsOnBurstyTraceAndReportsStats) {
  PlanetLabSynthConfig tc;
  tc.num_vms = 20;
  tc.num_steps = 80;
  const TraceTable trace = generate_planetlab(tc);
  Rng rng(2);
  std::vector<VmSpec> specs = sample_vm_fleet(20, rng);
  Datacenter dc(standard_host_fleet(12), specs);
  place_initial(dc, InitialPlacement::kRandom, rng);
  SandpiperPolicy policy;
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.totals.steps, 80);
  EXPECT_TRUE(r.steps.back().policy_stats.count("sandpiper_hotspot_moves"));
}

}  // namespace
}  // namespace megh
