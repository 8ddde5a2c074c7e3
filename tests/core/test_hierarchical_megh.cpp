// Hierarchical two-level Megh: single-pod bit-identity against flat Megh
// (the one-pod layout of the same core; sampled and enumerated candidate
// paths, fabric-attached and fabric-free), job-count bit-identity on a
// 16-pod fabric, per-pod checkpoint kill/restore round-trips, per-pod chaos
// recovery (masking + the SARSA remap), the interned-stat-keys
// allocation-free-step guarantee, and the checkpoint format-version gates.
#include "core/hierarchical_megh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "core/checkpoint.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "oracle/dense_matrix.hpp"
#include "sim/placement.hpp"
#include "sim/sharding.hpp"
#include "sim/simulation.hpp"

namespace megh {
namespace {

/// Wraps a policy and records every emitted action as (step, vm, target) —
/// the decision stream two runs must match on, byte for byte.
class RecordingPolicy : public MigrationPolicy {
 public:
  explicit RecordingPolicy(MigrationPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override {
    inner_.begin(dc, cost, interval_s);
  }
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override {
    const std::size_t before = out.size();
    inner_.decide_into(obs, out);
    for (std::size_t i = before; i < out.size(); ++i) {
      log.push_back({obs.step, out[i].vm, out[i].target_host});
    }
  }
  void observe_cost(double step_cost) override {
    inner_.observe_cost(step_cost);
  }
  void observe_outcomes(std::span<const MigrationOutcome> outcomes) override {
    inner_.observe_outcomes(outcomes);
  }
  void stats(PolicyStats& out) const override { inner_.stats(out); }

  std::vector<std::array<int, 3>> log;

 private:
  MigrationPolicy& inner_;
};

struct RunOutput {
  SimulationResult result;
  std::vector<std::array<int, 3>> actions;
  std::vector<int> placement;
};

RunOutput run_recorded(const Scenario& scenario, MigrationPolicy& policy,
                       std::shared_ptr<const FatTreeTopology> network,
                       int jobs = 1,
                       std::shared_ptr<const FaultPlan> faults = nullptr) {
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  SimulationConfig config = default_sim_config(0.05);
  config.network = std::move(network);
  config.faults = std::move(faults);
  config.jobs = jobs;
  RecordingPolicy recorder(policy);
  Simulation sim(std::move(dc), scenario.trace, config);
  RunOutput out{sim.run(recorder), std::move(recorder.log), {}};
  const int vms = static_cast<int>(scenario.vms.size());
  out.placement.reserve(static_cast<std::size_t>(vms));
  for (int vm = 0; vm < vms; ++vm) {
    out.placement.push_back(sim.datacenter().host_of(vm));
  }
  return out;
}

/// Bitwise equality of the decision stream, every snapshot column except
/// exec_ms, and the final placement.
void expect_identical(const RunOutput& a, const RunOutput& b,
                      const std::string& label) {
  EXPECT_EQ(a.actions, b.actions) << label << " action stream";
  ASSERT_EQ(a.result.steps.size(), b.result.steps.size()) << label;
  for (std::size_t i = 0; i < a.result.steps.size(); ++i) {
    const StepSnapshot& x = a.result.steps[i];
    const StepSnapshot& y = b.result.steps[i];
    const std::string at = label + " step " + std::to_string(i);
    EXPECT_EQ(x.step_cost_usd, y.step_cost_usd) << at;
    EXPECT_EQ(x.energy_cost_usd, y.energy_cost_usd) << at;
    EXPECT_EQ(x.sla_cost_usd, y.sla_cost_usd) << at;
    EXPECT_EQ(x.migrations, y.migrations) << at;
    EXPECT_EQ(x.rejected_migrations, y.rejected_migrations) << at;
    EXPECT_EQ(x.active_hosts, y.active_hosts) << at;
    EXPECT_EQ(x.overloaded_hosts, y.overloaded_hosts) << at;
    EXPECT_EQ(x.mean_host_util, y.mean_host_util) << at;
    EXPECT_EQ(x.aborted_migrations, y.aborted_migrations) << at;
    EXPECT_EQ(x.hosts_down, y.hosts_down) << at;
  }
  EXPECT_EQ(a.result.totals.total_cost_usd, b.result.totals.total_cost_usd)
      << label;
  EXPECT_EQ(a.result.totals.migrations, b.result.totals.migrations) << label;
  EXPECT_EQ(a.placement, b.placement) << label << " final placement";
}

MeghConfig base_config(std::uint64_t seed) {
  MeghConfig config;
  config.seed = seed;
  config.max_migration_fraction = 0.05;
  return config;
}

// --- tentpole contract: single-pod fabric ≡ flat Megh --------------------

TEST(HierarchicalMeghTest, SinglePodFabricBitIdenticalToFlatSampledPath) {
  // k = 12: one pod holds 36 hosts, so a 32-host fleet is a single clipped
  // pod and the hierarchical pod-local space (slot k == VM k, width == M)
  // coincides with the flat basis. d = 32 × 48 = 1536 > 1500 keeps both
  // policies on the sampled candidate path.
  const Scenario scenario = make_planetlab_scenario(32, 48, 80, 5);
  const auto fabric =
      std::make_shared<const FatTreeTopology>(FatTreeTopology(12));
  ASSERT_GE(fabric->hosts_per_pod(), 32);

  MeghPolicy flat(base_config(13));
  HierarchicalMeghConfig hier_config;
  hier_config.base = base_config(13);
  hier_config.network = fabric;
  HierarchicalMeghPolicy hier(hier_config);

  const RunOutput a = run_recorded(scenario, flat, fabric);
  const RunOutput b = run_recorded(scenario, hier, fabric);
  ASSERT_GT(a.result.totals.migrations, 0);
  ASSERT_EQ(hier.num_pods(), 1);
  expect_identical(a, b, "flat vs hier (single pod, sampled)");

  // The learned state coincides too, not just the decisions.
  PolicyStats fs, hs;
  flat.stats(fs);
  hier.stats(hs);
  for (const char* key :
       {"qtable_nnz", "theta_nnz", "lspi_updates", "b_offdiag_nnz",
        "temperature", "migrations_selected"}) {
    EXPECT_EQ(fs.at(key), hs.at(key)) << key;
  }
}

TEST(HierarchicalMeghTest, SinglePodFabricBitIdenticalToFlatEnumeration) {
  // d = 8 × 12 = 96 <= 1500: both sides enumerate every feasible action.
  const Scenario scenario = make_planetlab_scenario(8, 12, 60, 3);
  const auto fabric =
      std::make_shared<const FatTreeTopology>(FatTreeTopology(6));
  ASSERT_GE(fabric->hosts_per_pod(), 8);

  MeghPolicy flat(base_config(7));
  HierarchicalMeghConfig hier_config;
  hier_config.base = base_config(7);
  hier_config.network = fabric;
  HierarchicalMeghPolicy hier(hier_config);

  const RunOutput a = run_recorded(scenario, flat, fabric);
  const RunOutput b = run_recorded(scenario, hier, fabric);
  ASSERT_EQ(hier.num_pods(), 1);
  expect_identical(a, b, "flat vs hier (single pod, enumerated)");
}

TEST(HierarchicalMeghTest, FabricFreeSingleBlockBitIdenticalToFlat) {
  // No topology on either side: the hierarchical policy falls back to
  // 256-host blocks, which is one block here — the flat identity must
  // survive without a fabric.
  const Scenario scenario = make_planetlab_scenario(40, 56, 60, 9);

  MeghPolicy flat(base_config(21));
  HierarchicalMeghConfig hier_config;
  hier_config.base = base_config(21);
  HierarchicalMeghPolicy hier(hier_config);

  const RunOutput a = run_recorded(scenario, flat, nullptr);
  const RunOutput b = run_recorded(scenario, hier, nullptr);
  ASSERT_EQ(hier.num_pods(), 1);
  expect_identical(a, b, "flat vs hier (fabric-free)");
}

// --- job-count bit-identity on a 16-pod fabric ---------------------------

TEST(HierarchicalMeghTest, SixteenPodFabricBitIdenticalAcrossJobs) {
  // k = 16 serves exactly 1024 hosts in 16 pods of 64. Learners decide and
  // update in parallel over the shard executor; the decision stream must
  // not depend on the job count.
  const Scenario scenario = make_planetlab_scenario(1024, 1400, 12, 17);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(1024));
  ASSERT_EQ(fabric->num_pods(), 16);

  const auto run_at = [&](int jobs) {
    HierarchicalMeghConfig config;
    config.base = base_config(29);
    config.network = fabric;
    HierarchicalMeghPolicy hier(config);
    RunOutput out = run_recorded(scenario, hier, fabric, jobs);
    EXPECT_EQ(hier.num_pods(), 16);
    return out;
  };
  const RunOutput serial = run_at(1);
  ASSERT_GT(serial.result.totals.migrations, 0);
  expect_identical(serial, run_at(4), "hier jobs 1 vs 4");
  expect_identical(serial, run_at(8), "hier jobs 1 vs 8");
}

// --- per-pod checkpointing -----------------------------------------------

class HierCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("megh_hier_ckpt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

std::string file_contents(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(HierCheckpointTest, PerPodKillRestoreRoundTripIsExact) {
  // Train a 4-pod policy end-to-end, checkpoint it, restore into a fresh
  // instance, and demand exactness three ways: per-pod learner state,
  // shared actor state, and a byte-identical re-save.
  const Scenario scenario = make_planetlab_scenario(16, 24, 60, 5);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(16));
  ASSERT_EQ(fabric->num_pods(), 4);
  HierarchicalMeghConfig config;
  config.base = base_config(31);
  config.network = fabric;
  HierarchicalMeghPolicy trained(config);
  {
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
    SimulationConfig sim_config = default_sim_config(0.05);
    sim_config.network = fabric;
    Simulation sim(std::move(dc), scenario.trace, sim_config);
    sim.run(trained);
  }
  const auto path = dir_ / "hier.ckpt";
  save_megh_policy(trained, path);

  HierarchicalMeghPolicy restored(config);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  restored.begin(dc, CostConfig{}, 300.0);
  load_megh_policy(restored, path);

  ASSERT_EQ(restored.num_pods(), trained.num_pods());
  EXPECT_DOUBLE_EQ(restored.temperature(), trained.temperature());
  EXPECT_DOUBLE_EQ(restored.cost_baseline(), trained.cost_baseline());
  EXPECT_EQ(restored.baseline_initialized(), trained.baseline_initialized());
  for (int p = 0; p < trained.num_pods(); ++p) {
    const LspiLearner& a = trained.pod_learner(p);
    const LspiLearner& b = restored.pod_learner(p);
    ASSERT_EQ(a.dim(), b.dim()) << "pod " << p;
    EXPECT_DOUBLE_EQ(a.gamma(), b.gamma()) << "pod " << p;
    for (std::int64_t i = 0; i < a.dim(); ++i) {
      EXPECT_DOUBLE_EQ(a.q_value(i), b.q_value(i)) << "pod " << p;
    }
    EXPECT_LT(to_dense(b.B()).max_abs_diff(to_dense(a.B())), 1e-15)
        << "pod " << p;
    EXPECT_EQ(a.z().nnz(), b.z().nnz()) << "pod " << p;
    EXPECT_EQ(restored.pod_slot_capacity(p), trained.pod_slot_capacity(p));
    const auto slots_a = trained.pod_vm_of_slot(p);
    const auto slots_b = restored.pod_vm_of_slot(p);
    ASSERT_EQ(slots_a.size(), slots_b.size()) << "pod " << p;
    for (std::size_t s = 0; s < slots_a.size(); ++s) {
      EXPECT_EQ(slots_a[s], slots_b[s]) << "pod " << p << " slot " << s;
    }
  }
  // Byte-level round trip: re-saving the restored policy reproduces the
  // file exactly, so nothing was lost or renormalized in flight.
  const auto resaved = dir_ / "hier2.ckpt";
  save_megh_policy(restored, resaved);
  EXPECT_EQ(file_contents(path), file_contents(resaved));
}

TEST_F(HierCheckpointTest, RestoredPodLearnersContinueIdentically) {
  const Scenario scenario = make_planetlab_scenario(16, 24, 40, 7);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(16));
  HierarchicalMeghConfig config;
  config.base = base_config(37);
  config.network = fabric;
  HierarchicalMeghPolicy trained(config);
  {
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
    SimulationConfig sim_config = default_sim_config(0.05);
    sim_config.network = fabric;
    Simulation sim(std::move(dc), scenario.trace, sim_config);
    sim.run(trained);
  }
  const auto path = dir_ / "cont.ckpt";
  save_megh_policy(trained, path);
  HierarchicalMeghPolicy restored(config);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  restored.begin(dc, CostConfig{}, 300.0);
  load_megh_policy(restored, path);

  // Feed both sides of every pod the same post-restore update stream: the
  // critics must stay in lockstep, bit for bit.
  for (int p = 0; p < trained.num_pods(); ++p) {
    LspiLearner& a = trained.mutable_pod_learner(p);
    LspiLearner& b = restored.mutable_pod_learner(p);
    Rng rng(100 + static_cast<std::uint64_t>(p));
    for (int i = 0; i < 30; ++i) {
      const auto dim = static_cast<std::size_t>(a.dim());
      const std::int64_t act = static_cast<std::int64_t>(rng.index(dim));
      const std::int64_t next = static_cast<std::int64_t>(rng.index(dim));
      const double cost = rng.normal(1.0, 0.5);
      a.update(act, cost, next);
      b.update(act, cost, next);
      EXPECT_DOUBLE_EQ(a.q_value(act), b.q_value(act)) << "pod " << p;
    }
    EXPECT_LT(to_dense(b.B()).max_abs_diff(to_dense(a.B())), 1e-15)
        << "pod " << p;
  }
}

// --- checkpoint format-version gates (satellite fix) ---------------------

TEST_F(HierCheckpointTest, HierarchicalLoaderRejectsV1WithVersionedError) {
  const auto path = dir_ / "v1.ckpt";
  std::ofstream(path) << "megh-checkpoint v1\ndim 3 gamma 0.5\nz 0\n"
                         "theta 0\nBdiag 3\n1\n1\n1\nBoffdiag 0\n";
  const Scenario scenario = make_planetlab_scenario(16, 24, 10, 5);
  HierarchicalMeghConfig config;
  config.base = base_config(31);
  HierarchicalMeghPolicy policy(config);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  policy.begin(dc, CostConfig{}, 300.0);
  try {
    load_megh_policy(policy, path);
    FAIL() << "v1 flat checkpoint must not load as a hierarchical container";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
  }
}

TEST_F(HierCheckpointTest, BothLoadersRejectForeignFiles) {
  // One loader serves both layouts; neither accepts a non-checkpoint.
  const auto path = dir_ / "garbage.ckpt";
  std::ofstream(path) << "definitely not a checkpoint\n";
  const Scenario scenario = make_planetlab_scenario(8, 12, 10, 5);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  MeghPolicy flat(base_config(31));
  flat.begin(dc, CostConfig{}, 300.0);
  EXPECT_THROW(load_megh_policy(flat, path), ConfigError);
  HierarchicalMeghConfig config;
  config.base = base_config(31);
  HierarchicalMeghPolicy policy(config);
  policy.begin(dc, CostConfig{}, 300.0);
  EXPECT_THROW(load_megh_policy(policy, path), ConfigError);
}

// --- per-pod chaos recovery ----------------------------------------------

MeghConfig recovery_config(std::uint64_t seed) {
  MeghConfig config = base_config(seed);
  config.max_migration_fraction = 0.2;
  config.recovery = true;
  return config;
}

TEST(HierarchicalMeghChaosTest, MaskingAndAbortRecoveryWorkAcrossPods) {
  // Every applied migration aborts and one host goes down mid-run: the
  // policy must mask down-host candidates and count every failed move it
  // remapped, with the per-pod counters summing to the aggregates.
  const Scenario scenario = make_planetlab_scenario(16, 32, 80, 7);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(16));
  std::vector<FaultEvent> events;
  events.push_back({20, FaultClass::kHostFailure, 2, 0.0, 40});
  const auto faults = std::make_shared<const FaultPlan>(
      FaultPlan::from_events(std::move(events), 1.0, 9, 16, 80));

  HierarchicalMeghConfig config;
  config.base = recovery_config(43);
  config.network = fabric;
  HierarchicalMeghPolicy policy(config);
  const RunOutput r = run_recorded(scenario, policy, fabric, 1, faults);

  ASSERT_GT(r.result.totals.aborted_migrations, 0);
  PolicyStats stats;
  policy.stats(stats);
  EXPECT_GT(stats.at("masked_candidates"), 0.0);
  EXPECT_GT(stats.at("faults_seen"), 0.0);
  double pod_updates = 0.0;
  for (int p = 0; p < policy.num_pods(); ++p) {
    pod_updates += stats.at("pod" + std::to_string(p) + ".lspi_updates");
  }
  EXPECT_GT(pod_updates, 0.0);
  EXPECT_EQ(pod_updates, stats.at("lspi_updates"));
}

// --- allocation-free-step stat keys (satellite fix) ----------------------

TEST(HierarchicalMeghTest, StatKeysInternedAtBeginNotPerStep) {
  const Scenario scenario = make_planetlab_scenario(16, 24, 20, 5);
  {
    // The one-pod (flat) construction: its eleven keys, nothing per pod.
    MeghPolicy flat(base_config(31));
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
    flat.begin(dc, CostConfig{}, 300.0);
    const int after_begin = StatKey::interned_count();
    PolicyStats stats;
    flat.stats(stats);
    EXPECT_EQ(StatKey::interned_count(), after_begin)
        << "flat stats() interned a key outside begin()";
    EXPECT_EQ(stats.size(), 11);
    EXPECT_EQ(stats.count("pods"), 0);
    Datacenter dc2 = build_datacenter(scenario, InitialPlacement::kRandom, 11);
    Simulation sim(std::move(dc2), scenario.trace, default_sim_config(0.05));
    sim.run(flat);
    EXPECT_EQ(StatKey::interned_count(), after_begin);
  }
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(16));
  HierarchicalMeghConfig config;
  config.base = base_config(31);
  config.network = fabric;
  HierarchicalMeghPolicy policy(config);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  policy.begin(dc, CostConfig{}, 300.0);
  const int after_begin = StatKey::interned_count();
  PolicyStats stats;
  policy.stats(stats);
  EXPECT_EQ(StatKey::interned_count(), after_begin)
      << "stats() interned a key outside begin()";
  // All pod keys fit: 13 aggregates + 2 keys for each of 4 pods.
  EXPECT_EQ(stats.size(), 13 + 2 * 4);
  EXPECT_EQ(stats.at("pods"), 4.0);
  EXPECT_EQ(stats.at("slot_overflows"), 0.0);
  policy.stats(stats);
  EXPECT_EQ(StatKey::interned_count(), after_begin);
  // A full simulated run (which re-begins the policy and snapshots stats
  // every step) must not grow the registry either.
  Datacenter dc2 = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  SimulationConfig sim_config = default_sim_config(0.05);
  sim_config.network = fabric;
  Simulation sim(std::move(dc2), scenario.trace, sim_config);
  sim.run(policy);
  EXPECT_EQ(StatKey::interned_count(), after_begin);
}

// --- slot overflow --------------------------------------------------------

TEST(HierarchicalMeghTest, OverflowedPodOffersNoSlotlessVm) {
  // k = 4: 16 hosts in 4 pods of 4. Pod 0 starts with 4 VMs (cap 4 + 16 =
  // 20) and pod 1 with 60 (slots 0..59). Moving VMs 24..63 into pod 0 out
  // of band fills its 16 free slots with VMs 24..39 and leaves 40..63
  // without one, each still carrying a pod-1 slot >= 20. Pod 0's hosts are
  // overloaded, so every VM on them is offered as a source unless the
  // generator knows it is slotless.
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(16));
  ASSERT_EQ(fabric->num_pods(), 4);
  const int vms = 64;
  for (const int jobs : {1, 4}) {
    Datacenter dc(standard_host_fleet(16),
                  std::vector<VmSpec>(vms, VmSpec{100.0, 32.0, 10.0}));
    for (int vm = 0; vm < 4; ++vm) dc.place(vm, vm);
    for (int vm = 4; vm < vms; ++vm) dc.place(vm, 4 + vm % 4);
    dc.set_demands(std::vector<double>(vms, 0.5));
    HierarchicalMeghConfig config;
    config.base = base_config(7);
    config.base.max_migration_fraction = 1.0;
    config.base.candidates.full_enumeration_limit = 0;  // sampled path
    config.network = fabric;
    HierarchicalMeghPolicy policy(config);
    const CostConfig cost;
    policy.begin(dc, cost, 300.0);
    ASSERT_EQ(policy.pod_slot_capacity(0), 20);
    for (int vm = 24; vm < vms; ++vm) ASSERT_TRUE(dc.migrate(vm, vm % 4));

    std::vector<double> host_util = dc.all_host_utilization();
    for (int h = 0; h < 4; ++h) host_util[static_cast<std::size_t>(h)] = 0.95;
    const std::vector<double> vm_util(vms, 0.5);
    const ShardExecutor exec(policy.plan(), jobs);
    StepObservation obs;
    obs.interval_s = 300.0;
    obs.dc = &dc;
    obs.vm_util = vm_util;
    obs.host_util = host_util;
    obs.cost = &cost;
    obs.network = fabric.get();
    obs.exec = &exec;
    std::vector<MigrationAction> out;
    policy.decide_into(obs, out);

    const std::span<const int> slotted = policy.pod_vm_of_slot(0);
    int pod0_moves = 0;
    for (const MigrationAction& a : out) {
      if (dc.host_of(a.vm) >= 4) continue;
      ++pod0_moves;
      EXPECT_NE(std::find(slotted.begin(), slotted.end(), a.vm),
                slotted.end())
          << "jobs " << jobs << ": slotless VM " << a.vm << " was drawn";
    }
    EXPECT_GT(pod0_moves, 0) << "jobs " << jobs;
    PolicyStats stats;
    policy.stats(stats);
    EXPECT_EQ(stats.at("slot_overflows"), 24.0) << "jobs " << jobs;
  }
}

// --- per-pod memory contract ---------------------------------------------

TEST(HierarchicalMeghTest, LearnerDimensionsArePodLocal) {
  // 16 pods of 64 hosts: each learner's dim is cap_p × 64, and the summed
  // dimension sits orders of magnitude below the flat N × M space.
  const Scenario scenario = make_planetlab_scenario(1024, 1400, 2, 3);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(1024));
  HierarchicalMeghConfig config;
  config.base = base_config(3);
  config.network = fabric;
  HierarchicalMeghPolicy policy(config);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 11);
  policy.begin(dc, CostConfig{}, 300.0);
  std::int64_t total_dim = 0;
  for (int p = 0; p < policy.num_pods(); ++p) {
    const std::int64_t width =
        policy.pod_host_end(p) - policy.pod_host_begin(p);
    EXPECT_EQ(width, 64);
    EXPECT_EQ(policy.pod_learner(p).dim(),
              static_cast<std::int64_t>(policy.pod_slot_capacity(p)) * width);
    total_dim += policy.pod_learner(p).dim();
  }
  const std::int64_t flat_dim =
      static_cast<std::int64_t>(1400) * static_cast<std::int64_t>(1024);
  EXPECT_LT(total_dim, flat_dim / 10);
}

}  // namespace
}  // namespace megh
