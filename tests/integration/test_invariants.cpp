// Property/fuzz layer: whatever a policy throws at the engine — including
// deliberately hostile action storms — the simulator's accounting
// invariants must hold. These are the guarantees every bench number rests
// on.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/simple_policies.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "sim/simulation.hpp"

namespace megh {
namespace {

/// Emits a burst of uniformly random (often invalid) actions every step.
class ChaosPolicy : public MigrationPolicy {
 public:
  explicit ChaosPolicy(std::uint64_t seed, int burst) : rng_(seed), burst_(burst) {}
  std::string name() const override { return "Chaos"; }
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override {
    for (int i = 0; i < burst_; ++i) {
      // In-range but freely infeasible (no-ops, RAM misfits, over-cap).
      // Out-of-range indices are a structured error now — covered by
      // OutOfRangeActionThrowsStructuredError in tests/sim.
      out.push_back(MigrationAction{
          static_cast<int>(rng_.uniform_int(0, obs.dc->num_vms() - 1)),
          static_cast<int>(rng_.uniform_int(0, obs.dc->num_hosts() - 1))});
    }
  }

 private:
  Rng rng_;
  int burst_;
};

struct InvariantCase {
  int hosts;
  int vms;
  int steps;
  double cap;
  std::uint64_t seed;
};

class SimulatorInvariants : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(SimulatorInvariants, HoldUnderChaoticActionStorms) {
  const InvariantCase c = GetParam();
  const Scenario scenario =
      make_planetlab_scenario(c.hosts, c.vms, c.steps, c.seed);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom,
                                   c.seed + 1);
  SimulationConfig config;
  config.max_migration_fraction = c.cap;
  Simulation sim(std::move(dc), scenario.trace, config);
  ChaosPolicy policy(c.seed + 2, /*burst=*/30);
  const SimulationResult r = sim.run(policy);

  // 1. Totals are the sums of the steps.
  double cost = 0, energy = 0, sla = 0;
  long long migrations = 0;
  for (const auto& s : r.steps) {
    cost += s.step_cost_usd;
    energy += s.energy_cost_usd;
    sla += s.sla_cost_usd;
    migrations += s.migrations;
    // 2. Per-step sanity.
    EXPECT_GE(s.sla_cost_usd, 0.0);
    EXPECT_GT(s.energy_cost_usd, 0.0);  // someone is always running
    EXPECT_GE(s.active_hosts, 1);
    EXPECT_LE(s.active_hosts, c.hosts);
    EXPECT_LE(s.overloaded_hosts, s.active_hosts);
    EXPECT_TRUE(std::isfinite(s.step_cost_usd));
    // 3. The migration cap binds per step.
    if (c.cap > 0) {
      EXPECT_LE(s.migrations,
                std::max(1, static_cast<int>(std::ceil(c.cap * c.vms))));
    }
  }
  EXPECT_NEAR(r.totals.total_cost_usd, cost, 1e-9);
  EXPECT_NEAR(r.totals.energy_cost_usd, energy, 1e-9);
  EXPECT_NEAR(r.totals.sla_cost_usd, sla, 1e-9);
  EXPECT_EQ(r.totals.migrations, migrations);

  // 4. Final allocation is consistent: every VM placed, RAM respected.
  const Datacenter& final_dc = sim.datacenter();
  for (int vm = 0; vm < final_dc.num_vms(); ++vm) {
    EXPECT_NE(final_dc.host_of(vm), kUnplaced);
  }
  for (int h = 0; h < final_dc.num_hosts(); ++h) {
    double ram = 0;
    for (int vm : final_dc.vms_on(h)) ram += final_dc.vm_spec(vm).ram_mb;
    EXPECT_NEAR(final_dc.host_ram_used(h), ram, 1e-6);
    EXPECT_LE(ram, final_dc.host_spec(h).ram_mb + 1e-6);
  }

  // 5. Energy is bounded by the fleet's physical envelope.
  double max_watts = 0;
  for (int h = 0; h < final_dc.num_hosts(); ++h) {
    max_watts += final_dc.host_spec(h).power.max_watts();
  }
  const double upper = energy_cost_usd(max_watts, 300.0 * c.steps);
  EXPECT_LE(r.totals.energy_cost_usd, upper + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatorInvariants,
    ::testing::Values(InvariantCase{6, 8, 40, 0.0, 1},
                      InvariantCase{12, 20, 60, 0.1, 2},
                      InvariantCase{25, 40, 50, 0.02, 3},
                      InvariantCase{16, 30, 30, 0.5, 4},
                      InvariantCase{40, 30, 30, 0.0, 5}));

TEST(SimulatorInvariantsTest, MeghRunSatisfiesSameInvariants) {
  const Scenario scenario = make_planetlab_scenario(20, 30, 120, 9);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 10);
  SimulationConfig config;
  config.max_migration_fraction = 0.02;
  Simulation sim(std::move(dc), scenario.trace, config);
  MeghPolicy megh;
  const SimulationResult r = sim.run(megh);
  for (int h = 0; h < sim.datacenter().num_hosts(); ++h) {
    EXPECT_LE(sim.datacenter().host_ram_used(h),
              sim.datacenter().host_spec(h).ram_mb + 1e-6);
  }
  EXPECT_TRUE(std::isfinite(r.totals.total_cost_usd));
  // Q-table stats are finite and monotone.
  const auto nnz = r.series("qtable_nnz");
  for (std::size_t i = 1; i < nnz.size(); ++i) {
    EXPECT_GE(nnz[i], nnz[i - 1]);
  }
}

TEST(SimulatorInvariantsTest, SlaCostScalesWithDowntimeNotBelow) {
  // Monotonicity: a run with binary overload accounting can never cost
  // less SLA than the same run with graded (excess) accounting.
  const Scenario scenario = make_planetlab_scenario(14, 25, 80, 6);
  const auto run_mode = [&](OverloadDowntimeMode mode) {
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 7);
    SimulationConfig config;
    config.cost.overload_mode = mode;
    Simulation sim(std::move(dc), scenario.trace, config);
    NoMigrationPolicy policy;
    return sim.run(policy).totals.sla_cost_usd;
  };
  EXPECT_GE(run_mode(OverloadDowntimeMode::kBinary) + 1e-9,
            run_mode(OverloadDowntimeMode::kExcess));
}

}  // namespace
}  // namespace megh
