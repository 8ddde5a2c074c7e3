#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "baselines/simple_policies.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"

namespace megh {
namespace {

TEST(FatTreeTest, CapacityIsKCubedOverFour) {
  EXPECT_EQ(FatTreeTopology(4).capacity(), 16);
  EXPECT_EQ(FatTreeTopology(8).capacity(), 128);
  EXPECT_EQ(FatTreeTopology(16).capacity(), 1024);
}

TEST(FatTreeTest, ForHostsPicksSmallestK) {
  EXPECT_EQ(FatTreeTopology::for_hosts(1).k(), 2);
  EXPECT_EQ(FatTreeTopology::for_hosts(16).k(), 4);
  EXPECT_EQ(FatTreeTopology::for_hosts(17).k(), 6);
  EXPECT_EQ(FatTreeTopology::for_hosts(800).k(), 16);  // 16³/4 = 1024
}

TEST(FatTreeTest, OddOrTinyKRejected) {
  EXPECT_THROW(FatTreeTopology(3), ConfigError);
  EXPECT_THROW(FatTreeTopology(0), ConfigError);
  NetworkLinkConfig bad;
  bad.oversubscription = 0.5;
  EXPECT_THROW(FatTreeTopology(4, bad), ConfigError);
}

TEST(FatTreeTest, PodAndEdgeLayout) {
  const FatTreeTopology ft(4);  // 4 pods × 2 edges × 2 hosts
  EXPECT_EQ(ft.hosts_per_edge(), 2);
  EXPECT_EQ(ft.hosts_per_pod(), 4);
  EXPECT_EQ(ft.pod_of(0), 0);
  EXPECT_EQ(ft.pod_of(3), 0);
  EXPECT_EQ(ft.pod_of(4), 1);
  EXPECT_EQ(ft.edge_switch_of(0), 0);
  EXPECT_EQ(ft.edge_switch_of(1), 0);
  EXPECT_EQ(ft.edge_switch_of(2), 1);
}

TEST(FatTreeTest, HopCounts) {
  const FatTreeTopology ft(4);
  EXPECT_EQ(ft.hops(0, 0), 0);
  EXPECT_EQ(ft.hops(0, 1), 2);   // same edge switch
  EXPECT_EQ(ft.hops(0, 2), 4);   // same pod, different edge
  EXPECT_EQ(ft.hops(0, 4), 6);   // different pod
  EXPECT_EQ(ft.hops(4, 0), 6);   // symmetric
}

TEST(FatTreeTest, PathBandwidthDegradesWithDistance) {
  // 1-Gbps links on every tier.
  NetworkLinkConfig links;
  links.oversubscription = 4.0;
  const FatTreeTopology ft(4, links);
  EXPECT_DOUBLE_EQ(ft.path_bandwidth_mbps(0, 1), 1000.0);
  EXPECT_DOUBLE_EQ(ft.path_bandwidth_mbps(0, 2), 250.0);   // agg / 4
  EXPECT_DOUBLE_EQ(ft.path_bandwidth_mbps(0, 4), 62.5);    // core / 16
}

TEST(FatTreeTest, NonBlockingFabricIsDistanceInvariant) {
  const FatTreeTopology ft(4);  // oversubscription = 1
  EXPECT_DOUBLE_EQ(ft.path_bandwidth_mbps(0, 1),
                   ft.path_bandwidth_mbps(0, 4));
}

TEST(FatTreeTest, MigrationTimeScalesWithPath) {
  NetworkLinkConfig links;
  links.oversubscription = 4.0;
  const FatTreeTopology ft(4, links);
  const double near = ft.migration_time_s(512.0, 0, 1);
  const double far = ft.migration_time_s(512.0, 0, 4);
  EXPECT_NEAR(near, 4.096, 1e-9);          // 512 MB over 1 Gbps
  EXPECT_NEAR(far, 4.096 * 16.0, 1e-6);    // 16x slower across the core
}

// --- engine integration ---

struct NetWorld {
  Datacenter dc;
  TraceTable trace;

  static NetWorld make(int hosts, int vms) {
    std::vector<VmSpec> specs(static_cast<std::size_t>(vms),
                              VmSpec{1000.0, 512.0, 100.0});
    Datacenter dc(standard_host_fleet(hosts), specs);
    Rng rng(1);
    place_initial(dc, InitialPlacement::kRoundRobin, rng);
    TraceTable trace(vms, 4);
    for (int vm = 0; vm < vms; ++vm) {
      for (int s = 0; s < 4; ++s) trace.set(vm, s, 0.2);
    }
    return {std::move(dc), std::move(trace)};
  }
};

class TierScriptedPolicy : public MigrationPolicy {
 public:
  std::string name() const override { return "TierScripted"; }
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override {
    if (obs.step != 0) return;
    // Host layout for k=4: hosts 0,1 share an edge; 2 same pod; 4 other pod.
    out.push_back(MigrationAction{0, 1});  // same edge
    out.push_back(MigrationAction{1, 2});  // same pod (vm 1 starts on host 1)
    out.push_back(MigrationAction{2, 4});  // cross pod (vm 2 starts on host 2)
  }
};

TEST(NetworkSimulationTest, TierCountersRecorded) {
  NetWorld w = NetWorld::make(8, 8);  // round-robin: vm i on host i
  SimulationConfig config;
  config.network = std::make_shared<FatTreeTopology>(4);
  Simulation sim(std::move(w.dc), w.trace, config);
  TierScriptedPolicy policy;
  const SimulationResult r = sim.run(policy);
  EXPECT_EQ(r.steps[0].same_edge_migrations, 1);
  EXPECT_EQ(r.steps[0].same_pod_migrations, 1);
  EXPECT_EQ(r.steps[0].cross_pod_migrations, 1);
  EXPECT_EQ(r.totals.cross_pod_migrations, 1);
  EXPECT_EQ(r.series("cross_pod_migrations")[0], 1.0);
}

TEST(NetworkSimulationTest, OversubscribedCrossPodCostsMoreSla) {
  // Same single migration, same VM — once within an edge, once across the
  // core of a 4:1-oversubscribed fabric. The cross-pod run must accrue
  // more SLA cost (longer copy ⇒ more downtime).
  NetworkLinkConfig links;
  links.oversubscription = 4.0;
  const auto run_with_target = [&](int target) {
    NetWorld w = NetWorld::make(8, 8);
    SimulationConfig config;
    config.network = std::make_shared<FatTreeTopology>(4, links);
    // At the 2% downtime fraction the near move stays under tier 1
    // (0.082 s < 0.05% of 300 s) while the cross-pod copy (1.31 s) lands
    // in tier 2 — tiers saturate, so equal-tier downtimes cost the same.
    Simulation sim(std::move(w.dc), w.trace, config);
    class OneMove : public MigrationPolicy {
     public:
      explicit OneMove(int target) : target_(target) {}
      std::string name() const override { return "OneMove"; }
      void decide_into(const StepObservation& obs,
                       std::vector<MigrationAction>& out) override {
        if (obs.step == 0) out.push_back(MigrationAction{0, target_});
      }
      int target_;
    } policy(target);
    return sim.run(policy).totals.sla_cost_usd;
  };
  const double near_cost = run_with_target(1);   // same edge
  const double far_cost = run_with_target(4);    // cross pod
  EXPECT_GT(far_cost, near_cost);
}

TEST(NetworkSimulationTest, UndersizedFabricRejected) {
  NetWorld w = NetWorld::make(8, 8);
  SimulationConfig config;
  config.network = std::make_shared<FatTreeTopology>(2);  // capacity 2
  EXPECT_THROW(Simulation(std::move(w.dc), w.trace, config), ConfigError);
}

TEST(NetworkSimulationTest, NoNetworkMatchesHostNicModel) {
  NetWorld a = NetWorld::make(8, 8);
  NetWorld b = NetWorld::make(8, 8);
  SimulationConfig plain;
  SimulationConfig fabric;
  fabric.network = std::make_shared<FatTreeTopology>(4);  // non-blocking 1G
  NoMigrationPolicy policy;
  const auto ra = Simulation(std::move(a.dc), a.trace, plain).run(policy);
  const auto rb = Simulation(std::move(b.dc), b.trace, fabric).run(policy);
  EXPECT_DOUBLE_EQ(ra.totals.total_cost_usd, rb.totals.total_cost_usd);
}

}  // namespace
}  // namespace megh

#include "core/megh_policy.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

TEST(NetworkAwareMeghTest, PodAwareCandidatesReduceCrossPodMoves) {
  PlanetLabSynthConfig tc;
  tc.num_vms = 48;
  tc.num_steps = 200;
  const TraceTable trace = generate_planetlab(tc);
  NetworkLinkConfig links;
  links.oversubscription = 4.0;
  const auto fabric = std::make_shared<FatTreeTopology>(
      FatTreeTopology::for_hosts(32, links));

  const auto run = [&](bool aware) {
    Rng rng(3);
    std::vector<VmSpec> specs = sample_vm_fleet(48, rng);
    Datacenter dc(standard_host_fleet(32), specs);
    place_initial(dc, InitialPlacement::kRandom, rng);
    SimulationConfig config;
    config.max_migration_fraction = 0.02;
    config.network = fabric;
    MeghConfig mc;
    mc.candidates.network_aware = aware;
    MeghPolicy megh(mc);
    Simulation sim(std::move(dc), trace, config);
    return sim.run(megh).totals;
  };
  const auto oblivious = run(false);
  const auto aware = run(true);
  ASSERT_GT(oblivious.migrations, 0);
  ASSERT_GT(aware.migrations, 0);
  const double oblivious_frac =
      static_cast<double>(oblivious.cross_pod_migrations) /
      oblivious.migrations;
  const double aware_frac =
      static_cast<double>(aware.cross_pod_migrations) / aware.migrations;
  EXPECT_LT(aware_frac, oblivious_frac * 0.8)
      << "aware " << aware_frac << " vs oblivious " << oblivious_frac;
}

}  // namespace
}  // namespace megh
