#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/simple_policies.hpp"
#include "chaos/fault_plan.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "sim/placement.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_table.hpp"

namespace megh {
namespace {

struct Fixture {
  Datacenter dc;
  TraceTable trace;

  static Fixture make(int hosts, int vms, int steps, double util) {
    std::vector<VmSpec> specs(static_cast<std::size_t>(vms),
                              VmSpec{1000.0, 512.0, 100.0});
    Datacenter dc(standard_host_fleet(hosts), specs);
    Rng rng(1);
    place_initial(dc, InitialPlacement::kRoundRobin, rng);
    TraceTable trace(vms, steps);
    for (int vm = 0; vm < vms; ++vm) {
      for (int s = 0; s < steps; ++s) trace.set(vm, s, util);
    }
    return {std::move(dc), std::move(trace)};
  }
};

/// Policy scripted to emit a fixed action list at a given step.
class ScriptedPolicy : public MigrationPolicy {
 public:
  std::string name() const override { return "Scripted"; }
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override {
    const auto it = script_.find(obs.step);
    observed_costs_.push_back(obs.last_step_cost);
    if (it != script_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  void observe_cost(double c) override { costs_.push_back(c); }

  std::map<int, std::vector<MigrationAction>> script_;
  std::vector<double> costs_;
  std::vector<double> observed_costs_;
};

TEST(SimulationTest, TotalsAreSumsOfSteps) {
  Fixture f = Fixture::make(4, 6, 20, 0.3);
  Simulation sim(std::move(f.dc), f.trace, SimulationConfig{});
  NoMigrationPolicy policy;
  const SimulationResult r = sim.run(policy);
  ASSERT_EQ(r.steps.size(), 20u);
  double cost = 0.0, energy = 0.0, sla = 0.0;
  long long migrations = 0;
  for (const auto& s : r.steps) {
    cost += s.step_cost_usd;
    energy += s.energy_cost_usd;
    sla += s.sla_cost_usd;
    migrations += s.migrations;
    EXPECT_NEAR(s.step_cost_usd, s.energy_cost_usd + s.sla_cost_usd, 1e-12);
  }
  EXPECT_NEAR(r.totals.total_cost_usd, cost, 1e-9);
  EXPECT_NEAR(r.totals.energy_cost_usd, energy, 1e-9);
  EXPECT_NEAR(r.totals.sla_cost_usd, sla, 1e-9);
  EXPECT_EQ(r.totals.migrations, migrations);
  EXPECT_EQ(r.totals.steps, 20);
}

TEST(SimulationTest, NoMigrationStaticWorkloadIsPureEnergy) {
  Fixture f = Fixture::make(4, 4, 10, 0.2);  // low load: never overloaded
  Simulation sim(std::move(f.dc), f.trace, SimulationConfig{});
  NoMigrationPolicy policy;
  const SimulationResult r = sim.run(policy);
  EXPECT_DOUBLE_EQ(r.totals.sla_cost_usd, 0.0);
  EXPECT_GT(r.totals.energy_cost_usd, 0.0);
  EXPECT_EQ(r.totals.migrations, 0);
}

TEST(SimulationTest, ScriptedMigrationIsAppliedAndCharged) {
  Fixture f = Fixture::make(4, 4, 5, 0.2);
  Simulation sim(std::move(f.dc), f.trace, SimulationConfig{});
  ScriptedPolicy policy;
  // Move VM 0 from host 0 to host 1 at step 2.
  policy.script_[2] = {MigrationAction{0, 1}};
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.steps[2].migrations, 1);
  EXPECT_EQ(sim.datacenter().host_of(0), 1);
  EXPECT_EQ(r.totals.migrations, 1);
}

TEST(SimulationTest, InfeasibleActionsRejectedNotFatal) {
  // In-range but infeasible actions (no-ops, RAM misfits) are counted as
  // rejections, not errors.
  Fixture f = Fixture::make(2, 2, 3, 0.2);
  Simulation sim(std::move(f.dc), f.trace, SimulationConfig{});
  ScriptedPolicy policy;
  policy.script_[0] = {
      MigrationAction{0, 0},    // no-op (vm 0 already on host 0)
      MigrationAction{1, 1},    // no-op (vm 1 already on host 1)
  };
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.steps[0].migrations, 0);
  EXPECT_EQ(r.steps[0].rejected_migrations, 2);
}

TEST(SimulationTest, OutOfRangeActionThrowsStructuredError) {
  // A nonexistent VM or host index is a policy programming bug: the engine
  // surfaces it as InvalidActionError with full context, not an assert.
  for (const MigrationAction bad : {MigrationAction{-1, 0},   // bad vm
                                    MigrationAction{5, 0},    // bad vm
                                    MigrationAction{0, -2},   // bad host
                                    MigrationAction{0, 99}})  // bad host
  {
    Fixture f = Fixture::make(2, 2, 3, 0.2);
    Simulation sim(std::move(f.dc), f.trace, SimulationConfig{});
    ScriptedPolicy policy;
    policy.script_[1] = {bad};
    try {
      sim.run(policy);
      FAIL() << "expected InvalidActionError";
    } catch (const InvalidActionError& e) {
      EXPECT_EQ(e.policy(), "Scripted");
      EXPECT_EQ(e.step(), 1);
      EXPECT_EQ(e.vm(), bad.vm);
      EXPECT_EQ(e.target_host(), bad.target_host);
      EXPECT_NE(std::string(e.what()).find("Scripted"), std::string::npos);
    }
  }
}

TEST(SimulationTest, MigrationCapEnforced) {
  Fixture f = Fixture::make(8, 10, 2, 0.1);
  SimulationConfig config;
  config.max_migration_fraction = 0.2;  // cap = ceil(0.2 * 10) = 2
  Simulation sim(std::move(f.dc), f.trace, config);
  ScriptedPolicy policy;
  std::vector<MigrationAction> burst;
  for (int vm = 0; vm < 10; ++vm) {
    burst.push_back(MigrationAction{vm, (vm + 3) % 8});
  }
  policy.script_[0] = burst;
  const SimulationResult r = sim.run(policy);
  EXPECT_LE(r.steps[0].migrations, 2);
  EXPECT_GE(r.steps[0].rejected_migrations, 8);
}

TEST(SimulationTest, OverloadAccrualRaisesSlaCost) {
  // Two 2500-MIPS VMs at 100% on one G4 host (3720) → 134% demanded.
  std::vector<VmSpec> specs{{2500, 512, 100}, {2500, 512, 100}};
  Datacenter dc(standard_host_fleet(1), specs);
  dc.place(0, 0);
  dc.place(1, 0);
  TraceTable trace(2, 5);
  for (int vm = 0; vm < 2; ++vm) {
    for (int s = 0; s < 5; ++s) trace.set(vm, s, 1.0);
  }
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  NoMigrationPolicy policy;
  const SimulationResult r = sim.run(policy);
  EXPECT_GT(r.totals.sla_cost_usd, 0.0);
  for (const auto& s : r.steps) {
    EXPECT_EQ(s.overloaded_hosts, 1);
  }
}

TEST(SimulationTest, CostFeedbackReachesPolicy) {
  Fixture f = Fixture::make(4, 4, 6, 0.2);
  Simulation sim(std::move(f.dc), f.trace, SimulationConfig{});
  ScriptedPolicy policy;
  const SimulationResult r = sim.run(policy);
  ASSERT_EQ(policy.costs_.size(), 6u);
  EXPECT_NEAR(policy.costs_[3], r.steps[3].step_cost_usd, 1e-12);
  // Observation carries the previous step's cost (0 at step 0).
  EXPECT_DOUBLE_EQ(policy.observed_costs_[0], 0.0);
  EXPECT_NEAR(policy.observed_costs_[4], r.steps[3].step_cost_usd, 1e-12);
}

TEST(SimulationTest, PartialRunAndSeriesExtraction) {
  Fixture f = Fixture::make(4, 4, 50, 0.2);
  Simulation sim(std::move(f.dc), f.trace, SimulationConfig{});
  NoMigrationPolicy policy;
  const SimulationResult r = sim.run(policy, 7);
  EXPECT_EQ(r.totals.steps, 7);
  EXPECT_EQ(r.series("step_cost").size(), 7u);
  EXPECT_EQ(r.series("active_hosts")[0], 4.0);
  EXPECT_THROW(r.series("nonsense"), ConfigError);
}

TEST(SimulationTest, UnplacedVmRejectedAtConstruction) {
  std::vector<VmSpec> specs{{1000, 512, 100}};
  Datacenter dc(standard_host_fleet(1), specs);  // VM not placed
  TraceTable trace(1, 2);
  EXPECT_THROW(Simulation(std::move(dc), trace, SimulationConfig{}),
               ConfigError);
}

TEST(SimulationTest, TraceVmCountMustMatch) {
  Fixture f = Fixture::make(2, 2, 3, 0.1);
  TraceTable wrong(3, 3);
  EXPECT_THROW(Simulation(std::move(f.dc), wrong, SimulationConfig{}),
               ConfigError);
}

TEST(SimulationTest, SleepingHostsReduceEnergy) {
  // Same VMs packed on one host vs spread over four: packed must cost less
  // energy per step (three hosts sleep).
  std::vector<VmSpec> specs(4, VmSpec{500, 512, 100});
  TraceTable trace(4, 3);
  for (int vm = 0; vm < 4; ++vm) {
    for (int s = 0; s < 3; ++s) trace.set(vm, s, 0.2);
  }

  Datacenter packed(standard_host_fleet(4), specs);
  for (int vm = 0; vm < 4; ++vm) packed.place(vm, 0);
  Datacenter spread(standard_host_fleet(4), specs);
  for (int vm = 0; vm < 4; ++vm) spread.place(vm, vm);

  NoMigrationPolicy policy;
  Simulation sim_packed(std::move(packed), trace, SimulationConfig{});
  Simulation sim_spread(std::move(spread), trace, SimulationConfig{});
  const double packed_cost =
      sim_packed.run(policy).totals.energy_cost_usd;
  const double spread_cost =
      sim_spread.run(policy).totals.energy_cost_usd;
  EXPECT_LT(packed_cost, spread_cost * 0.5);
}

/// Keeps every trace record in memory.
class VectorSink final : public TraceSink {
 public:
  explicit VectorSink(std::vector<TraceRecord>* out) : out_(out) {}
  void write(const TraceRecord& record) override { out_->push_back(record); }

 private:
  std::vector<TraceRecord>* out_;
};

/// Telemetry is process-wide: leave it off whatever the test does.
class SimulationTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { Telemetry::instance().reset(); }
};

TEST_F(SimulationTraceTest, EachRunTracesItsOwnTotals) {
  // Two runs in one process, the second under chaos: each run's counters
  // start from zero and its last record carries that run's own totals.
  const int steps = 30;
  const Scenario scenario = make_planetlab_scenario(16, 24, steps, 3);
  FaultPlanConfig chaos;
  chaos.enabled = true;
  chaos.seed = 5;
  chaos.migration_abort_rate = 0.3;
  chaos.host_failure_rate = 0.03;
  const auto plan = std::make_shared<const FaultPlan>(
      FaultPlan::compile(chaos, 16, steps));
  std::vector<TraceRecord> records;
  Telemetry::instance().configure(std::make_unique<VectorSink>(&records),
                                  TraceLevel::kCounters);
  std::vector<SimulationResult> results;
  for (int run = 0; run < 2; ++run) {
    SimulationConfig config = default_sim_config(0.05);
    if (run == 1) config.faults = plan;
    MeghConfig megh_config;
    megh_config.seed = 7;
    MeghPolicy megh(megh_config);
    Simulation sim(build_datacenter(scenario, InitialPlacement::kRandom, 11),
                   scenario.trace, config);
    results.push_back(sim.run(megh));
  }
  ASSERT_EQ(records.size(), 2u * steps);
  ASSERT_GT(results[0].totals.migrations, 0);
  ASSERT_GT(results[1].totals.fault_events, 0);
  for (int run = 0; run < 2; ++run) {
    const std::size_t base = static_cast<std::size_t>(run * steps);
    EXPECT_EQ(records[base].counters.at("sim.steps"), 1) << "run " << run;
    const TraceRecord& last = records[base + steps - 1];
    const SimulationResult& result = results[static_cast<std::size_t>(run)];
    const SimulationTotals& totals = result.totals;
    EXPECT_EQ(last.step, steps - 1);
    EXPECT_EQ(last.counters.at("sim.steps"), totals.steps);
    EXPECT_EQ(last.counters.at("sim.migrations_applied"), totals.migrations);
    EXPECT_EQ(last.counters.at("sim.migrations_rejected"),
              totals.rejected_migrations);
    EXPECT_EQ(last.counters.at("chaos.fault_events"), totals.fault_events);
    EXPECT_EQ(last.counters.at("chaos.migrations_aborted"),
              totals.aborted_migrations);
    EXPECT_EQ(last.counters.at("chaos.forced_evacuations"),
              totals.forced_evacuations);
    EXPECT_EQ(last.counters.at("chaos.stranded_vm_steps"),
              totals.stranded_vm_steps);
    // Gauges are the step's own values, policy stats included.
    const StepSnapshot& snap = result.steps.back();
    EXPECT_EQ(last.gauges.at("sim.step_cost_usd"), snap.step_cost_usd);
    EXPECT_EQ(last.gauges.at("lspi_updates"),
              snap.policy_stats.at("lspi_updates"));
    EXPECT_EQ(last.gauges.at("candidates"),
              snap.policy_stats.at("candidates"));
  }
}

}  // namespace
}  // namespace megh
