// The pod-sharded step's house contract: decision outputs and every
// snapshot column except exec_ms are bit-identical at any
// SimulationConfig::jobs. Exercised end-to-end (PlanetLab-style workloads,
// chaos-enabled runs, fabric-attached and fabric-free fleets, Megh and
// THR-MMT) plus unit coverage of make_step_shards and the batched
// candidate scans.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "baselines/mmt_policy.hpp"
#include "chaos/fault_plan.hpp"
#include "core/candidates.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/placement.hpp"
#include "sim/sharding.hpp"
#include "sim/simulation.hpp"

namespace megh {
namespace {

struct RunOutput {
  SimulationResult result;
  std::vector<int> placement;  // final host of every VM
};

/// Run `scenario` at the given job count with a freshly built policy and
/// datacenter, returning the full result plus the final placement.
template <typename MakePolicy>
RunOutput run_with_jobs(const Scenario& scenario, int jobs,
                        MakePolicy make_policy,
                        std::shared_ptr<const FatTreeTopology> network,
                        std::shared_ptr<const FaultPlan> faults = nullptr) {
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  SimulationConfig config = default_sim_config(0.05);
  config.network = std::move(network);
  config.faults = std::move(faults);
  config.jobs = jobs;
  auto policy = make_policy();
  Simulation sim(std::move(dc), scenario.trace, config);
  RunOutput out{sim.run(*policy), {}};
  const int vms = static_cast<int>(scenario.vms.size());
  out.placement.reserve(static_cast<std::size_t>(vms));
  for (int vm = 0; vm < vms; ++vm) {
    out.placement.push_back(sim.datacenter().host_of(vm));
  }
  return out;
}

/// Bitwise equality (== on doubles is the contract) of everything except
/// exec_ms — the one column documented as jobs-dependent.
void expect_identical(const RunOutput& a, const RunOutput& b,
                      const std::string& label) {
  ASSERT_EQ(a.result.steps.size(), b.result.steps.size()) << label;
  for (std::size_t i = 0; i < a.result.steps.size(); ++i) {
    const StepSnapshot& x = a.result.steps[i];
    const StepSnapshot& y = b.result.steps[i];
    const std::string at = label + " step " + std::to_string(i);
    EXPECT_EQ(x.step, y.step) << at;
    EXPECT_EQ(x.energy_cost_usd, y.energy_cost_usd) << at;
    EXPECT_EQ(x.sla_cost_usd, y.sla_cost_usd) << at;
    EXPECT_EQ(x.step_cost_usd, y.step_cost_usd) << at;
    EXPECT_EQ(x.migrations, y.migrations) << at;
    EXPECT_EQ(x.rejected_migrations, y.rejected_migrations) << at;
    EXPECT_EQ(x.same_edge_migrations, y.same_edge_migrations) << at;
    EXPECT_EQ(x.same_pod_migrations, y.same_pod_migrations) << at;
    EXPECT_EQ(x.cross_pod_migrations, y.cross_pod_migrations) << at;
    EXPECT_EQ(x.active_hosts, y.active_hosts) << at;
    EXPECT_EQ(x.overloaded_hosts, y.overloaded_hosts) << at;
    EXPECT_EQ(x.mean_host_util, y.mean_host_util) << at;
    EXPECT_EQ(x.aborted_migrations, y.aborted_migrations) << at;
    EXPECT_EQ(x.rejected_down_host, y.rejected_down_host) << at;
    EXPECT_EQ(x.forced_evacuations, y.forced_evacuations) << at;
    EXPECT_EQ(x.stranded_vms, y.stranded_vms) << at;
    EXPECT_EQ(x.hosts_down, y.hosts_down) << at;
    EXPECT_EQ(x.fault_events, y.fault_events) << at;
  }
  EXPECT_EQ(a.result.totals.total_cost_usd, b.result.totals.total_cost_usd)
      << label;
  EXPECT_EQ(a.result.totals.energy_cost_usd, b.result.totals.energy_cost_usd)
      << label;
  EXPECT_EQ(a.result.totals.sla_cost_usd, b.result.totals.sla_cost_usd)
      << label;
  EXPECT_EQ(a.result.totals.slatah, b.result.totals.slatah) << label;
  EXPECT_EQ(a.result.totals.pdm, b.result.totals.pdm) << label;
  EXPECT_EQ(a.result.totals.energy_kwh, b.result.totals.energy_kwh) << label;
  EXPECT_EQ(a.result.totals.migrations, b.result.totals.migrations) << label;
  EXPECT_EQ(a.result.totals.cross_pod_migrations,
            b.result.totals.cross_pod_migrations)
      << label;
  EXPECT_EQ(a.result.totals.mean_active_hosts,
            b.result.totals.mean_active_hosts)
      << label;
  EXPECT_EQ(a.placement, b.placement) << label << " final placement";
}

// --- end-to-end bit-identity across job counts ---------------------------

TEST(ShardedStepTest, MeghPodShardedBitIdenticalAcrossJobs) {
  // 32 hosts on a k=6 fabric: 4 pods of 9 hosts, the last clipped to 5 —
  // the ragged-pod case. d = 32 × 48 = 1536 > 1500 keeps Megh on the
  // sampled candidate path whose scans fan out over the executor.
  const Scenario scenario = make_planetlab_scenario(32, 48, 100, 5);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(32));
  const auto make_megh = [] {
    MeghConfig config;
    config.seed = 13;
    config.max_migration_fraction = 0.05;
    return std::make_unique<MeghPolicy>(config);
  };
  const RunOutput serial = run_with_jobs(scenario, 1, make_megh, fabric);
  ASSERT_GT(serial.result.totals.migrations, 0);
  expect_identical(serial, run_with_jobs(scenario, 4, make_megh, fabric),
                   "megh jobs 1 vs 4");
  expect_identical(serial, run_with_jobs(scenario, 8, make_megh, fabric),
                   "megh jobs 1 vs 8");
}

TEST(ShardedStepTest, ThrMmtBitIdenticalAcrossJobs) {
  // THR-MMT drives the sharded PABFD fold in the baselines layer.
  const Scenario scenario = make_planetlab_scenario(32, 48, 100, 7);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(32));
  const auto make_mmt = [] { return make_thr_mmt(0.7, 7); };
  const RunOutput serial = run_with_jobs(scenario, 1, make_mmt, fabric);
  ASSERT_GT(serial.result.totals.migrations, 0);
  expect_identical(serial, run_with_jobs(scenario, 4, make_mmt, fabric),
                   "thr-mmt jobs 1 vs 4");
  expect_identical(serial, run_with_jobs(scenario, 8, make_mmt, fabric),
                   "thr-mmt jobs 1 vs 8");
}

TEST(ShardedStepTest, FabricFreeBlockShardsBitIdenticalAcrossJobs) {
  // No topology → kDefaultShardHosts-sized blocks; 600 hosts gives three
  // shards, so the parallel path genuinely fans out.
  const Scenario scenario = make_planetlab_scenario(600, 300, 25, 9);
  const auto make_mmt = [] { return make_thr_mmt(0.7, 3); };
  const RunOutput serial = run_with_jobs(scenario, 1, make_mmt, nullptr);
  expect_identical(serial, run_with_jobs(scenario, 4, make_mmt, nullptr),
                   "block-shard jobs 1 vs 4");
}

TEST(ShardedStepTest, ChaosRunBitIdenticalAcrossJobs) {
  // Fault replay (aborts, host failures, degradation windows, trace gaps)
  // layered on the sharded step: the injector owns its own RNG stream, so
  // the whole fault log must replay identically at any job count.
  const Scenario scenario = make_planetlab_scenario(32, 48, 80, 3);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(32));
  FaultPlanConfig chaos;
  chaos.enabled = true;
  chaos.seed = 21;
  chaos.migration_abort_rate = 0.25;
  chaos.host_failure_rate = 0.02;
  chaos.network_degradation_rate = 0.03;
  chaos.trace_gap_rate = 0.04;
  const auto plan = std::make_shared<const FaultPlan>(
      FaultPlan::compile(chaos, 32, 80));
  ASSERT_FALSE(plan->zero());
  const auto make_megh = [] {
    MeghConfig config;
    config.seed = 29;
    config.max_migration_fraction = 0.05;
    return std::make_unique<MeghPolicy>(config);
  };
  const RunOutput serial = run_with_jobs(scenario, 1, make_megh, fabric, plan);
  long long fault_events = 0;
  for (const auto& s : serial.result.steps) fault_events += s.fault_events;
  ASSERT_GT(fault_events, 0) << "chaos plan produced no faults";
  expect_identical(serial, run_with_jobs(scenario, 8, make_megh, fabric, plan),
                   "chaos jobs 1 vs 8");
}

TEST(ShardedStepTest, StepEnergyIsIntervalEnergyCostBitForBit) {
  // The settle phase sums per-host watt terms written by the shards; on a
  // fault-free run that fold must reproduce interval_energy_cost_usd on
  // the settled datacenter exactly, serially and sharded on a fabric.
  const Scenario scenario = make_planetlab_scenario(32, 48, 40, 5);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(32));
  for (const int jobs : {1, 4}) {
    SimulationConfig config = default_sim_config(0.05);
    config.jobs = jobs;
    if (jobs > 1) config.network = fabric;
    const Simulation* sim = nullptr;
    int checked = 0;
    config.on_step = [&](const StepSnapshot& snap) {
      EXPECT_EQ(snap.energy_cost_usd,
                interval_energy_cost_usd(sim->datacenter(), config.interval_s))
          << "jobs " << jobs << " step " << snap.step;
      ++checked;
    };
    MeghConfig megh_config;
    megh_config.seed = 13;
    megh_config.max_migration_fraction = 0.05;
    MeghPolicy megh(megh_config);
    Simulation run(build_datacenter(scenario, InitialPlacement::kRandom, 11),
                   scenario.trace, config);
    sim = &run;
    const SimulationResult result = run.run(megh);
    EXPECT_EQ(checked, 40) << "jobs " << jobs;
    EXPECT_GT(result.totals.migrations, 0) << "jobs " << jobs;
  }
}

// --- make_step_shards ----------------------------------------------------

TEST(MakeStepShardsTest, PodPlanMatchesFabricLayout) {
  const FatTreeTopology ft(4);  // 4 pods × 4 hosts, capacity 16
  const ShardPlan plan = make_step_shards(&ft, 16);
  ASSERT_EQ(plan.num_shards(), 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.shard_begin(s), 4 * s);
    EXPECT_EQ(plan.shard_end(s), 4 * (s + 1));
    for (int h = plan.shard_begin(s); h < plan.shard_end(s); ++h) {
      EXPECT_EQ(ft.pod_of(h), s);
    }
  }
}

TEST(MakeStepShardsTest, LastPodClippedToFleet) {
  const FatTreeTopology ft(4);
  const ShardPlan plan = make_step_shards(&ft, 10);  // stops mid-pod 2
  ASSERT_EQ(plan.num_shards(), 3);
  EXPECT_EQ(plan.shard_end(1), 8);
  EXPECT_EQ(plan.shard_end(2), 10);
  EXPECT_EQ(plan.count(), 10);
}

TEST(MakeStepShardsTest, NoFabricUsesFixedBlocks) {
  const ShardPlan plan = make_step_shards(nullptr, 600);
  ASSERT_EQ(plan.num_shards(), 3);
  EXPECT_EQ(plan.shard_end(0), kDefaultShardHosts);
  EXPECT_EQ(plan.shard_end(1), 2 * kDefaultShardHosts);
  EXPECT_EQ(plan.shard_end(2), 600);
}

TEST(MakeStepShardsTest, UndersizedFabricFallsBackToBlocks) {
  const FatTreeTopology ft(4);  // capacity 16 < 20 hosts
  const ShardPlan plan = make_step_shards(&ft, 20);
  EXPECT_EQ(plan.num_shards(), 1);  // 20 < kDefaultShardHosts
  EXPECT_EQ(plan.count(), 20);
}

// --- batched candidate scans ---------------------------------------------

struct CandidateWorld {
  Datacenter dc;
  ActionBasis basis;
  std::vector<double> host_util;

  static CandidateWorld make(int hosts, int vms) {
    std::vector<VmSpec> specs(static_cast<std::size_t>(vms),
                              VmSpec{1000.0, 512.0, 100.0});
    Datacenter dc(standard_host_fleet(hosts), specs);
    Rng rng(3);
    place_initial(dc, InitialPlacement::kRandom, rng);
    std::vector<double> demands(static_cast<std::size_t>(vms));
    for (int vm = 0; vm < vms; ++vm) {
      demands[static_cast<std::size_t>(vm)] = 0.05 + 0.9 * (vm % 11) / 11.0;
    }
    dc.set_demands(demands);
    auto host_util = dc.all_host_utilization();
    return {std::move(dc), ActionBasis(vms, hosts), std::move(host_util)};
  }
};

TEST(ShardedCandidatesTest, ShardedScansMatchSerialExactly) {
  // d = 64 × 96 = 6144 > limit → sampled path: source selection, the
  // PABFD/packing folds and the random probes. Sharded and serial calls
  // must agree candidate-for-candidate, in order — same RNG stream, exact
  // merges.
  CandidateWorld w = CandidateWorld::make(64, 96);
  w.host_util[0] = 0.95;  // force an overloaded source group
  const FatTreeTopology fabric = FatTreeTopology::for_hosts(64);
  CandidateConfig config;

  const auto generate = [&](const ShardExecutor* exec) {
    Rng rng(9);
    CandidateScratch scratch;
    generate_candidates(w.dc, w.host_util, 0.7, w.basis, config, rng,
                        scratch, &fabric, exec);
    return scratch.candidates;
  };

  const std::vector<CandidateAction> serial = generate(nullptr);
  ASSERT_FALSE(serial.empty());
  for (int jobs : {2, 4, 8}) {
    const ShardExecutor exec(make_step_shards(&fabric, 64), jobs);
    const std::vector<CandidateAction> sharded = generate(&exec);
    ASSERT_EQ(sharded.size(), serial.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i].vm, serial[i].vm) << "jobs " << jobs << " #" << i;
      EXPECT_EQ(sharded[i].host, serial[i].host)
          << "jobs " << jobs << " #" << i;
      EXPECT_EQ(sharded[i].index, serial[i].index);
      EXPECT_EQ(sharded[i].is_noop, serial[i].is_noop);
      EXPECT_EQ(sharded[i].group, serial[i].group);
    }
  }
}

TEST(ShardedCandidatesTest, FullEnumerationEmitsPodMajorSourceBlocks) {
  // With a fabric attached, enumerate_all groups sources by pod (so each
  // shard's candidates form one contiguous block) without changing the
  // candidate *set*.
  CandidateWorld w = CandidateWorld::make(12, 20);  // d = 240 → enumerate
  const FatTreeTopology fabric(4);                  // capacity 16 >= 12
  CandidateConfig config;
  Rng rng(1);
  const auto with_fabric = generate_candidates(w.dc, w.host_util, 0.7,
                                               w.basis, config, rng, &fabric);
  ASSERT_FALSE(with_fabric.empty());
  int last_pod = 0;
  for (const auto& c : with_fabric) {
    const int pod = fabric.pod_of(w.dc.host_of(c.vm));
    EXPECT_GE(pod, last_pod) << "source pods must be non-decreasing";
    last_pod = pod;
  }
  // Same feasible set as the fabric-free enumeration, just reordered.
  Rng rng2(1);
  const auto without = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                           config, rng2, nullptr);
  const auto keys = [](const std::vector<CandidateAction>& cands) {
    std::set<std::pair<int, int>> out;
    for (const auto& c : cands) out.insert({c.vm, c.host});
    return out;
  };
  EXPECT_EQ(keys(with_fabric), keys(without));
}

}  // namespace
}  // namespace megh
