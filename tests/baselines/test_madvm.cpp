#include "baselines/madvm.hpp"

#include <gtest/gtest.h>

#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

struct World {
  Datacenter dc;
  TraceTable trace;

  static World make(int hosts, int vms, int steps, std::uint64_t seed = 3) {
    Rng rng(seed);
    std::vector<VmSpec> specs = sample_vm_fleet(vms, rng);
    Datacenter dc(standard_host_fleet(hosts), specs);
    place_initial(dc, InitialPlacement::kRandom, rng);
    PlanetLabSynthConfig tc;
    tc.num_vms = vms;
    tc.num_steps = steps;
    tc.seed = seed;
    return {std::move(dc), generate_planetlab(tc)};
  }
};

TEST(MadVmTest, RunsAndProducesFiniteValues) {
  World w = World::make(8, 12, 30);
  MadVmPolicy policy;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.totals.steps, 30);
  for (int u = 0; u < MadVmPolicy::kUtilBuckets; ++u) {
    for (int l = 0; l < MadVmPolicy::kHostBuckets; ++l) {
      EXPECT_TRUE(std::isfinite(policy.value(0, u, l)));
    }
  }
}

TEST(MadVmTest, ValuesPenalizeOverloadedBuckets) {
  World w = World::make(8, 12, 60);
  MadVmPolicy policy;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  sim.run(policy);
  // For any utilization bucket, a host-load bucket above beta must be worth
  // less than a moderate one (the overload penalty dominates).
  const double moderate = policy.value(0, 2, 4);  // ~45% load
  const double overloaded = policy.value(0, 2, 9);  // ~95% load
  EXPECT_GT(moderate, overloaded);
}

TEST(MadVmTest, MigratesEagerly) {
  // MadVM is uncapped and greedy per VM. The paper's Figs 4b/5b rate is
  // ~5.5 migrations/step at 150 VMs, i.e. ~0.037 per VM per step; at
  // 20 VMs over 50 steps that is ~35 moves. Assert the order of magnitude.
  World w = World::make(10, 20, 50);
  MadVmPolicy policy;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  EXPECT_GT(r.totals.migrations, 10);
}

TEST(MadVmTest, StatsExposeSweepsAndRequests) {
  World w = World::make(6, 8, 10);
  MadVmPolicy policy;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  const auto& stats = r.steps.back().policy_stats;
  EXPECT_GT(stats.at("madvm_sweeps"), 0.0);
  EXPECT_TRUE(stats.count("madvm_migrations_requested"));
}

TEST(MadVmTest, DeterministicForSeed) {
  const auto run_once = [] {
    World w = World::make(8, 12, 25);
    MadVmPolicy policy(5);
    Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
    return sim.run(policy).totals;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.total_cost_usd, b.total_cost_usd);
}

TEST(MadVmTest, ForcedEvacuationOnOverload) {
  // Single overloaded host with a feasible escape: MadVM must move someone.
  std::vector<VmSpec> specs{{2500, 512, 100}, {2500, 512, 100}};
  Datacenter dc(standard_host_fleet(2), specs);
  dc.place(0, 0);
  dc.place(1, 0);
  TraceTable trace(2, 3);
  for (int vm = 0; vm < 2; ++vm) {
    for (int s = 0; s < 3; ++s) trace.set(vm, s, 0.9);
  }
  MadVmPolicy policy;
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  EXPECT_GE(r.totals.migrations, 1);
}

TEST(MadVmTest, ValueLookupValidatesArguments) {
  MadVmPolicy policy;
  EXPECT_THROW(policy.value(0, 0, 0), ConfigError);  // before begin()
}

}  // namespace
}  // namespace megh
