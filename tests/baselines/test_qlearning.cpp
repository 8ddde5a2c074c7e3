#include "baselines/qlearning.hpp"

#include <gtest/gtest.h>

#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

struct World {
  Datacenter dc;
  TraceTable trace;

  static World make(int hosts, int vms, int steps, std::uint64_t seed = 4) {
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

TEST(QLearningTest, StateSpaceSize) {
  QLearningPolicy policy;
  EXPECT_EQ(policy.num_states(), 125);  // 5 × 5 × 5
}

TEST(QLearningTest, TrainingUpdatesQTable) {
  World w = World::make(8, 12, 60);
  QLearningPolicy policy;
  policy.set_training(true);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  EXPECT_GT(r.steps.back().policy_stats.at("qlearning_updates"), 0.0);
  // Some Q cell must have moved off zero (costs are positive → negative Q).
  bool moved = false;
  for (int s = 0; s < policy.num_states() && !moved; ++s) {
    for (int a = 0; a < QLearningPolicy::kNumActions; ++a) {
      if (policy.q(s, a) != 0.0) {
        moved = true;
        break;
      }
    }
  }
  EXPECT_TRUE(moved);
}

TEST(QLearningTest, QTablePersistsAcrossTrainThenDeploy) {
  World train = World::make(8, 12, 40, 4);
  QLearningPolicy policy;
  policy.set_training(true);
  {
    Simulation sim(std::move(train.dc), train.trace, SimulationConfig{});
    sim.run(policy);
  }
  // Snapshot a Q value, then deploy: begin() must not wipe the table.
  double snapshot = 0.0;
  int snap_state = 0, snap_action = 0;
  for (int s = 0; s < policy.num_states(); ++s) {
    for (int a = 0; a < QLearningPolicy::kNumActions; ++a) {
      if (policy.q(s, a) != 0.0) {
        snapshot = policy.q(s, a);
        snap_state = s;
        snap_action = a;
      }
    }
  }
  ASSERT_NE(snapshot, 0.0);
  policy.set_training(false);
  EXPECT_EQ(policy.name(), "Q-learning");
  World deploy = World::make(8, 12, 5, 5);
  Simulation sim(std::move(deploy.dc), deploy.trace, SimulationConfig{});
  sim.run(policy, 1);
  // The cell may have been updated once more but must not have been reset.
  EXPECT_NE(policy.q(snap_state, snap_action), 0.0);
}

TEST(QLearningTest, DeploymentModeMigratesConservatively) {
  World w = World::make(8, 12, 50);
  QLearningPolicy policy;
  policy.set_training(false);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(policy);
  // Macro-actions move at most 2 VMs per step.
  for (const auto& s : r.steps) {
    EXPECT_LE(s.migrations, 2);
  }
}

TEST(QLearningTest, NameReflectsMode) {
  QLearningPolicy policy;
  EXPECT_EQ(policy.name(), "Q-learning(train)");
  policy.set_training(false);
  EXPECT_EQ(policy.name(), "Q-learning");
}

}  // namespace
}  // namespace megh
