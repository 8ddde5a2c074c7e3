#include "core/megh_policy.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "baselines/simple_policies.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

struct World {
  Datacenter dc;
  TraceTable trace;

  static World make(int hosts, int vms, int steps, std::uint64_t seed = 1) {
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

TEST(MeghPolicyTest, DecideBeforeBeginRejected) {
  MeghPolicy megh;
  StepObservation obs;
  EXPECT_THROW(megh.decide(obs), ConfigError);
}

TEST(MeghPolicyTest, RunsEndToEndAndReportsStats) {
  World w = World::make(10, 15, 50);
  SimulationConfig config;
  config.max_migration_fraction = 0.02;
  Simulation sim(std::move(w.dc), w.trace, config);
  MeghPolicy megh;
  const SimulationResult r = sim.run(megh);
  EXPECT_EQ(r.totals.steps, 50);
  const auto& stats = r.steps.back().policy_stats;
  EXPECT_TRUE(stats.count("qtable_nnz"));
  EXPECT_TRUE(stats.count("temperature"));
  EXPECT_GT(stats.at("lspi_updates"), 0.0);
}

TEST(MeghPolicyTest, MigrationBudgetRespected) {
  World w = World::make(10, 20, 30);
  MeghConfig config;
  config.max_migration_fraction = 0.1;  // budget = 2
  MeghPolicy megh(config);
  SimulationConfig sim_config;
  Simulation sim(std::move(w.dc), w.trace, sim_config);
  const SimulationResult r = sim.run(megh);
  for (const auto& s : r.steps) {
    EXPECT_LE(s.migrations, 2);
  }
}

TEST(MeghPolicyTest, TemperatureDecaysEveryStep) {
  World w = World::make(8, 10, 40);
  MeghConfig config;
  config.temp0 = 3.0;
  config.epsilon = 0.01;
  MeghPolicy megh(config);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  sim.run(megh, 40);
  EXPECT_NEAR(megh.temperature(), 3.0 * std::exp(-0.01 * 40), 1e-9);
}

TEST(MeghPolicyTest, QTableGrowsWithTime) {
  World w = World::make(10, 15, 60);
  MeghPolicy megh;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(megh);
  const auto nnz = r.series("qtable_nnz");
  EXPECT_GT(nnz.back(), nnz.front());
  for (std::size_t i = 1; i < nnz.size(); ++i) {
    EXPECT_GE(nnz[i], nnz[i - 1]);  // monotone growth (Fig. 7)
  }
}

TEST(MeghPolicyTest, DeterministicForSeed) {
  const auto run_once = [] {
    World w = World::make(10, 15, 40);
    MeghConfig config;
    config.seed = 99;
    MeghPolicy megh(config);
    Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
    return sim.run(megh).totals;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.total_cost_usd, b.total_cost_usd);
}

TEST(MeghPolicyTest, MigratesAboutOncePerStep) {
  // The paper's signature rate: Megh converges to roughly one migration per
  // step (Table 2: 2309 over 2016 steps) — far below the 2% budget, and
  // with some Boltzmann draws landing on no-ops.
  World w = World::make(20, 40, 200);
  MeghConfig config;
  config.max_migration_fraction = 0.1;  // budget 4/step — must not be used
  MeghPolicy megh(config);
  SimulationConfig sim_config;
  sim_config.max_migration_fraction = 0.1;
  Simulation sim(std::move(w.dc), w.trace, sim_config);
  const SimulationResult r = sim.run(megh);
  EXPECT_LT(r.totals.migrations, 3 * 200);  // well under the 800 budget
  EXPECT_GT(r.totals.migrations, 0);
}

TEST(MeghPolicyTest, PaperLiteralUpdateModeRuns) {
  World w = World::make(10, 15, 50);
  MeghConfig config;
  config.advantage_baseline = false;  // Algorithm 1 verbatim
  MeghPolicy megh(config);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult r = sim.run(megh);
  EXPECT_EQ(r.totals.steps, 50);
  for (const auto& s : r.steps) {
    EXPECT_TRUE(std::isfinite(s.step_cost_usd));
  }
}

TEST(MeghPolicyTest, LearnerAccessibleAfterBegin) {
  World w = World::make(5, 6, 10);
  MeghPolicy megh;
  EXPECT_THROW(megh.learner(), ConfigError);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  sim.run(megh, 10);
  EXPECT_EQ(megh.learner().dim(), 30);
  EXPECT_GT(megh.learner().updates(), 0);
}

TEST(MeghPolicyTest, OnePodShapeIsNTimesM) {
  // 36 hosts x 40 VMs: N x M = 1440 <= full_enumeration_limit (1500) <
  // (N + 16) x M = 2016. Flat Megh's learner spans exactly N x M (no slot
  // headroom), and its candidate set is the full enumeration: more
  // candidates than the sampled path could emit for all 40 VMs.
  World w = World::make(36, 40, 2);
  MeghPolicy megh;
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  const SimulationResult result = sim.run(megh, 1);
  EXPECT_EQ(megh.learner().dim(), 36 * 40);
  const double candidates = result.steps[0].policy_stats.at("candidates");
  EXPECT_GT(candidates, 40.0 * kMaxCandidatesPerSource);
  EXPECT_LE(candidates, 36.0 * 40.0);
}

TEST(MeghPolicyTest, InvalidConfigRejected) {
  MeghConfig config;
  config.max_migration_fraction = 0.0;
  EXPECT_THROW(MeghPolicy{config}, ConfigError);
  // An infinite temperature or decay rate would make the first decay NaN,
  // after which no weight is ever drawable.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::function<void(MeghConfig&)>> bad = {
      [&](MeghConfig& c) { c.temp0 = inf; },
      [&](MeghConfig& c) { c.epsilon = inf; },
  };
  for (const auto& make_bad : bad) {
    config = MeghConfig{};
    make_bad(config);
    EXPECT_THROW(MeghPolicy{config}, ConfigError);
  }
  config = MeghConfig{};
  config.gamma = 1.0;
  MeghPolicy megh(config);  // gamma validated at begin() via LspiLearner
  World w = World::make(4, 4, 4);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  EXPECT_THROW(sim.run(megh, 2), ConfigError);
}

}  // namespace
}  // namespace megh
