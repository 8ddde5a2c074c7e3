// Chaos ↔ engine integration: the zero-plan bit-identity contract, fault
// replay determinism across worker counts, the per-class fault semantics
// (aborts, host failure/recovery, stranding, trace gaps, degradation), and
// Megh's recovery machinery (stats keys, masking, the SARSA remap).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "baselines/simple_policies.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/fault_plan.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/experiment_engine.hpp"
#include "harness/scenario.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"

namespace megh {
namespace {

struct Fixture {
  Datacenter dc;
  TraceTable trace;

  static Fixture make(int hosts, int vms, int steps, double util,
                      double vm_ram_mb = 512.0) {
    std::vector<VmSpec> specs(static_cast<std::size_t>(vms),
                              VmSpec{1000.0, vm_ram_mb, 100.0});
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

class ScriptedPolicy : public MigrationPolicy {
 public:
  std::string name() const override { return "Scripted"; }
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override {
    const auto it = script_.find(obs.step);
    if (it != script_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::map<int, std::vector<MigrationAction>> script_;
};

std::shared_ptr<const FaultPlan> abort_only_plan(double rate, int hosts,
                                                 int steps) {
  return std::make_shared<const FaultPlan>(
      FaultPlan::from_events({}, rate, 17, hosts, steps));
}

MeghConfig recovery_megh_config(std::uint64_t seed) {
  MeghConfig config;
  config.seed = seed;
  config.max_migration_fraction = 0.1;
  config.recovery = true;
  return config;
}

// --- satellite: rate-0 plan ≡ no plan, property-style over seeds ---------

TEST(ChaosIdentityTest, ZeroRatePlanIsBitIdenticalToFaultFreeRun) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const Scenario scenario = make_planetlab_scenario(12, 18, 50, seed);

    ExperimentOptions plain;
    plain.max_migration_fraction = 0.1;
    MeghConfig base_config;
    base_config.seed = seed;
    base_config.max_migration_fraction = 0.1;
    MeghPolicy base(base_config);
    const ExperimentResult a = run_experiment(scenario, base, plain);

    // Same run with an enabled-but-zero-rate plan attached AND the full
    // recovery machinery armed: every decision must come out bit-identical.
    FaultPlanConfig zero;
    zero.enabled = true;
    zero.seed = seed + 1000;
    ASSERT_TRUE(zero.zero_rates());
    ExperimentOptions chaotic = plain;
    chaotic.faults =
        std::make_shared<const FaultPlan>(FaultPlan::compile(zero, 12, 50));
    MeghPolicy armed(recovery_megh_config(seed));
    const ExperimentResult b = run_experiment(scenario, armed, chaotic);

    ASSERT_EQ(a.sim.steps.size(), b.sim.steps.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.sim.steps.size(); ++i) {
      const StepSnapshot& x = a.sim.steps[i];
      const StepSnapshot& y = b.sim.steps[i];
      EXPECT_EQ(x.migrations, y.migrations) << "seed " << seed;
      EXPECT_EQ(x.rejected_migrations, y.rejected_migrations);
      EXPECT_EQ(x.active_hosts, y.active_hosts);
      // Bitwise, not approximately: == on doubles is the contract.
      EXPECT_EQ(x.step_cost_usd, y.step_cost_usd) << "seed " << seed;
      EXPECT_EQ(x.energy_cost_usd, y.energy_cost_usd);
      EXPECT_EQ(x.sla_cost_usd, y.sla_cost_usd);
      EXPECT_EQ(y.fault_events, 0);
      EXPECT_EQ(y.aborted_migrations, 0);
    }
    EXPECT_EQ(a.sim.totals.total_cost_usd, b.sim.totals.total_cost_usd);
    EXPECT_EQ(a.sim.totals.migrations, b.sim.totals.migrations);
    EXPECT_EQ(a.sim.totals.mean_active_hosts, b.sim.totals.mean_active_hosts);
  }
}

// --- satellite: same (seed, plan) → identical fault logs at any --jobs ---

TEST(ChaosReplayTest, FaultLogsIdenticalAcrossJobCounts) {
  ExperimentSpec spec;
  spec.name = "chaos_replay_test";
  spec.paper_ref = "—";
  spec.title = "chaos replay";
  spec.paper_claim = "test";
  spec.params = {
      {"hosts", 16, 16, 16, "PM count"},
      {"vms", 24, 24, 24, "VM count"},
      {"steps", 40, 40, 40, "steps"},
  };
  spec.plan = [](const ScaleValues& scale, std::uint64_t seed) {
    const int hosts = scale.get_int("hosts");
    const int steps = scale.get_int("steps");
    ExperimentPlan plan;
    plan.scenarios.push_back(make_planetlab_scenario(
        hosts, scale.get_int("vms"), steps, seed));
    FaultPlanConfig config;
    config.enabled = true;
    config.seed = seed ^ 0xc405;
    config.migration_abort_rate = 0.3;
    config.host_failure_rate = 0.01;
    config.network_degradation_rate = 0.05;
    config.trace_gap_rate = 0.03;
    const auto faults = std::make_shared<const FaultPlan>(
        FaultPlan::compile(config, hosts, steps));
    for (int variant = 0; variant < 3; ++variant) {
      CellSpec cell;
      cell.label = "Megh-" + std::to_string(variant);
      cell.rng_stream = seed + static_cast<std::uint64_t>(variant);
      cell.make = [seed, variant] {
        return std::make_unique<MeghPolicy>(
            recovery_megh_config(seed + static_cast<std::uint64_t>(variant)));
      };
      cell.options.max_migration_fraction = 0.1;
      cell.options.faults = faults;
      plan.cells.push_back(std::move(cell));
    }
    return plan;
  };

  EngineConfig serial_config;
  serial_config.jobs = 1;
  serial_config.quiet = true;
  EngineConfig sharded_config = serial_config;
  sharded_config.jobs = 4;
  const ExperimentOutput serial = run_experiment_spec(spec, serial_config);
  const ExperimentOutput sharded = run_experiment_spec(spec, sharded_config);

  ASSERT_EQ(serial.cells.size(), sharded.cells.size());
  bool any_fault = false;
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const SimulationResult& a = serial.cells[c].result.sim;
    const SimulationResult& b = sharded.cells[c].result.sim;
    // The fault log: per-step chaos columns must match event for event.
    for (const char* series : {"fault_events", "aborted_migrations",
                               "rejected_down_host", "forced_evacuations",
                               "stranded_vms", "hosts_down"}) {
      const std::vector<double> sa = a.series(series);
      const std::vector<double> sb = b.series(series);
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i], sb[i]) << series << " step " << i;
      }
    }
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].step_cost_usd, b.steps[i].step_cost_usd);
      EXPECT_EQ(a.steps[i].migrations, b.steps[i].migrations);
    }
    EXPECT_EQ(a.totals.fault_events, b.totals.fault_events);
    EXPECT_EQ(a.totals.aborted_migrations, b.totals.aborted_migrations);
    EXPECT_EQ(a.totals.total_cost_usd, b.totals.total_cost_usd);
    any_fault = any_fault || a.totals.fault_events > 0;
  }
  EXPECT_TRUE(any_fault) << "plan produced no faults; test is vacuous";
}

// --- per-class fault semantics -------------------------------------------

TEST(ChaosSimTest, AbortedMigrationStaysOnSourceButIsCharged) {
  Fixture f = Fixture::make(4, 4, 5, 0.2);
  SimulationConfig config;
  config.faults = abort_only_plan(1.0, 4, 5);
  Simulation sim(std::move(f.dc), f.trace, config);
  ScriptedPolicy policy;
  policy.script_[1] = {MigrationAction{0, 1}};
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(sim.datacenter().host_of(0), 0);  // never moved
  EXPECT_EQ(r.steps[1].aborted_migrations, 1);
  EXPECT_EQ(r.steps[1].migrations, 0);
  EXPECT_GE(r.steps[1].fault_events, 1);
  EXPECT_EQ(r.totals.aborted_migrations, 1);
  EXPECT_EQ(r.totals.migrations, 0);
  // The wasted copy still degrades the VM's service (PDM numerator).
  EXPECT_GT(r.totals.pdm, 0.0);
}

TEST(ChaosSimTest, HostFailureEvacuatesAndRecoveryRestoresCapacity) {
  // 4 hosts, 8 VMs round-robin: host 0 carries VMs {0, 4}. Fail it over
  // [1, 4), recover at step 4.
  Fixture f = Fixture::make(4, 8, 8, 0.2);
  SimulationConfig config;
  config.faults = std::make_shared<const FaultPlan>(FaultPlan::from_events(
      {
          {1, FaultClass::kHostFailure, 0, 0.0, 3},
          {4, FaultClass::kHostRecovery, 0, 0.0, 0},
      },
      0.0, 5, 4, 8));
  Simulation sim(std::move(f.dc), f.trace, config);
  NoMigrationPolicy policy;
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.steps[1].forced_evacuations, 2);
  EXPECT_EQ(r.totals.forced_evacuations, 2);
  EXPECT_NE(sim.datacenter().host_of(0), 0);
  EXPECT_NE(sim.datacenter().host_of(4), 0);
  const std::vector<double> down = r.series("hosts_down");
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(down[static_cast<std::size_t>(s)], s >= 1 && s < 4 ? 1.0 : 0.0)
        << "step " << s;
  }
  // Evacuation is downtime: the failure step charges SLA where the
  // fault-free baseline charges none.
  EXPECT_GT(r.totals.sla_cost_usd, 0.0);
}

TEST(ChaosSimTest, VmWithNoFeasibleTargetIsStrandedAndCharged) {
  // Two hosts, one 3000 MB VM each: 4096 MB hosts cannot absorb a second
  // VM, so when host 1 dies its VM has nowhere to go.
  Fixture f = Fixture::make(2, 2, 6, 0.2, /*vm_ram_mb=*/3000.0);
  SimulationConfig config;
  config.faults = std::make_shared<const FaultPlan>(FaultPlan::from_events(
      {{1, FaultClass::kHostFailure, 1, 0.0, 3},
       {4, FaultClass::kHostRecovery, 1, 0.0, 0}},
      0.0, 5, 2, 6));
  Simulation sim(std::move(f.dc), f.trace, config);
  NoMigrationPolicy policy;
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.totals.forced_evacuations, 0);
  EXPECT_EQ(r.totals.stranded_vm_steps, 3);  // steps 1, 2, 3
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(r.steps[static_cast<std::size_t>(s)].stranded_vms, 1);
  }
  EXPECT_EQ(sim.datacenter().host_of(1), 1);  // stayed put through the outage
  EXPECT_GT(r.totals.sla_cost_usd, 0.0);      // full-interval downtime
}

TEST(ChaosSimTest, TraceGapFreezesDemandsAtLastObservedColumn) {
  // Demand jumps 0.2 → 0.8 at step 2, but a gap covers [2, 4): the jump
  // must not be visible until step 4.
  Fixture f = Fixture::make(2, 4, 6, 0.2);
  for (int vm = 0; vm < 4; ++vm) {
    for (int s = 2; s < 6; ++s) f.trace.set(vm, s, 0.8);
  }
  SimulationConfig config;
  config.faults = std::make_shared<const FaultPlan>(FaultPlan::from_events(
      {{2, FaultClass::kTraceGap, -1, 0.0, 2}}, 0.0, 5, 2, 6));
  Simulation sim(std::move(f.dc), f.trace, config);
  NoMigrationPolicy policy;
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.steps[2].energy_cost_usd, r.steps[1].energy_cost_usd);
  EXPECT_EQ(r.steps[3].energy_cost_usd, r.steps[1].energy_cost_usd);
  EXPECT_GT(r.steps[4].energy_cost_usd, r.steps[1].energy_cost_usd);
}

TEST(ChaosSimTest, NetworkDegradationInflatesMigrationDowntime) {
  const auto run_with = [](std::shared_ptr<const FaultPlan> faults) {
    Fixture f = Fixture::make(4, 4, 5, 0.2);
    SimulationConfig config;
    config.faults = std::move(faults);
    Simulation sim(std::move(f.dc), f.trace, config);
    ScriptedPolicy policy;
    policy.script_[1] = {MigrationAction{0, 1}};
    return sim.run(policy);
  };
  const SimulationResult nominal = run_with(nullptr);
  const SimulationResult degraded = run_with(
      std::make_shared<const FaultPlan>(FaultPlan::from_events(
          {{0, FaultClass::kNetworkDegradation, -1, 0.25, 5}}, 0.0, 5, 4,
          5)));
  EXPECT_EQ(nominal.totals.migrations, 1);
  EXPECT_EQ(degraded.totals.migrations, 1);
  // Same move at a quarter of the bandwidth: 4x the copy time.
  EXPECT_GT(degraded.totals.pdm, nominal.totals.pdm * 3.0);
}

// --- Megh recovery machinery ---------------------------------------------

TEST(MeghRecoveryTest, StatsExposeFaultCountersAndRoundTrip) {
  const Scenario scenario = make_planetlab_scenario(16, 24, 60, 42);
  ExperimentOptions options;
  options.max_migration_fraction = 0.1;
  options.faults = abort_only_plan(1.0, 16, 60);  // every migration aborts
  MeghPolicy policy(recovery_megh_config(42));
  const ExperimentResult r = run_experiment(scenario, policy, options);
  ASSERT_GT(r.sim.totals.aborted_migrations, 0);
  EXPECT_EQ(r.sim.totals.migrations, 0);

  PolicyStats stats;
  policy.stats(stats);
  for (const char* key : {"faults_seen", "masked_candidates"}) {
    EXPECT_EQ(stats.count(key), 1) << key;
    // Interned-key round trip: the name resolves to a registered StatKey,
    // the key resolves back to the name, and keyed lookup agrees with the
    // name-based accessor.
    const StatKey interned = StatKey::find(key);
    ASSERT_TRUE(interned.valid()) << key;
    EXPECT_EQ(interned.name(), key);
    const double* by_key = stats.find(interned);
    ASSERT_NE(by_key, nullptr) << key;
    EXPECT_EQ(*by_key, stats.at(key)) << key;
  }
  // Every aborted move was one Megh requested, and each was counted.
  EXPECT_EQ(stats.at("faults_seen"),
            static_cast<double>(r.sim.totals.aborted_migrations));
  // Fault counters also ride the per-step snapshots the engine records.
  EXPECT_EQ(r.sim.steps.back().policy_stats.count("faults_seen"), 1);
}

TEST(MeghRecoveryTest, MasksCandidatesTargetingDownHosts) {
  const Scenario scenario = make_planetlab_scenario(16, 24, 60, 42);
  // A third of the fleet is down for the entire run.
  std::vector<FaultEvent> events;
  for (int h = 0; h < 6; ++h) {
    events.push_back({0, FaultClass::kHostFailure, h, 0.0, 60});
  }
  ExperimentOptions options;
  options.max_migration_fraction = 0.1;
  options.faults = std::make_shared<const FaultPlan>(
      FaultPlan::from_events(std::move(events), 0.0, 9, 16, 60));

  MeghPolicy masked(recovery_megh_config(42));
  const ExperimentResult r = run_experiment(scenario, masked, options);
  PolicyStats stats;
  masked.stats(stats);
  // Masking removed down-host candidates before any draw, so the engine
  // never saw a migration aimed at a dead host.
  EXPECT_GT(stats.at("masked_candidates"), 0.0);
  EXPECT_EQ(r.sim.totals.rejected_down_host, 0);
}

TEST(MeghRecoveryTest, FailedActionsRemapToTheNoOpAppliedOnesKeepTheirIndex) {
  // Every move Megh draws gets a verdict in turn — aborted, target down,
  // applied — and its open SARSA transition is read back. A failed move
  // left the VM on its source, so its pending action becomes the VM's
  // no-op, slot·M + source (slot k is VM k in flat Megh); an applied move
  // and every drawn no-op keep the index that was drawn. The policy is
  // driven by hand, so nothing but the verdicts decides the remap.
  Fixture f = Fixture::make(4, 8, 2, 0.5);
  constexpr std::int64_t kHosts = 4;
  MeghConfig config = recovery_megh_config(42);
  config.max_migration_fraction = 0.5;  // a budget of four a step
  MeghPolicy policy(config);
  const CostConfig cost;
  policy.begin(f.dc, cost, 300.0);
  const std::vector<double> vm_util(8, 0.5);
  const std::vector<double> host_util(4, 0.5);
  StepObservation obs;
  obs.interval_s = 300.0;
  obs.dc = &f.dc;
  obs.vm_util = vm_util;
  obs.host_util = host_util;
  obs.cost = &cost;

  constexpr MigrationVerdict kTurns[] = {MigrationVerdict::kAborted,
                                         MigrationVerdict::kTargetDown,
                                         MigrationVerdict::kApplied};
  std::map<MigrationVerdict, int> seen;
  int turn = 0;
  for (; obs.step < 60 && seen.size() < std::size(kTurns); ++obs.step) {
    std::vector<MigrationAction> moves;
    policy.decide_into(obs, moves);
    const std::vector<std::int64_t> drawn(policy.pending_actions(0).begin(),
                                          policy.pending_actions(0).end());
    std::vector<MigrationOutcome> outcomes;
    std::vector<MigrationVerdict> verdict_of;  // per drawn action
    for (const std::int64_t a : drawn) {
      const int vm = static_cast<int>(a / kHosts);
      const int host = static_cast<int>(a % kHosts);
      if (host == f.dc.host_of(vm)) {
        verdict_of.push_back(MigrationVerdict::kApplied);  // a no-op
        continue;
      }
      // Moves are emitted in draw order.
      ASSERT_LT(outcomes.size(), moves.size());
      EXPECT_EQ(moves[outcomes.size()].vm, vm);
      EXPECT_EQ(moves[outcomes.size()].target_host, host);
      const MigrationVerdict v = kTurns[turn++ % std::size(kTurns)];
      outcomes.push_back({vm, host, v});
      verdict_of.push_back(v);
      ++seen[v];
    }
    ASSERT_EQ(outcomes.size(), moves.size());
    policy.observe_cost(1.0);
    policy.observe_outcomes(outcomes);

    const std::span<const std::int64_t> pending = policy.pending_actions(0);
    ASSERT_EQ(pending.size(), drawn.size());
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      const std::int64_t vm = drawn[i] / kHosts;
      const std::int64_t noop =
          vm * kHosts + f.dc.host_of(static_cast<int>(vm));
      EXPECT_EQ(pending[i], verdict_of[i] == MigrationVerdict::kApplied
                                ? drawn[i]
                                : noop)
          << "step " << obs.step << ", action " << i;
    }
  }
  EXPECT_EQ(seen.size(), std::size(kTurns)) << "Megh drew too few moves";
}

}  // namespace
}  // namespace megh
