#include "sim/migration_model.hpp"

#include <gtest/gtest.h>

#include "baselines/simple_policies.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"

namespace megh {
namespace {

TEST(PreCopyTest, ZeroDirtyRateIsOneRoundBulkCopy) {
  // No dirtying: round 0 copies everything, stop-and-copy is (near) free.
  const MigrationEstimate est = precopy_migration(1024.0, 1000.0, 0.0);
  EXPECT_TRUE(est.converged);
  EXPECT_EQ(est.rounds, 1);
  EXPECT_NEAR(est.copy_s, 1024.0 / 125.0, 1e-9);  // 1 GB at 125 MB/s
  EXPECT_DOUBLE_EQ(est.downtime_s, 0.0);
}

TEST(PreCopyTest, ModerateDirtyRateConvergesGeometrically) {
  // 25 MB/s dirty on a 125 MB/s link: each round shrinks the set 5x
  // (1000 → 200 → 40 → 8 MB, under the 32-MB stop-copy threshold).
  const MigrationEstimate est = precopy_migration(1000.0, 1000.0, 25.0);
  EXPECT_TRUE(est.converged);
  EXPECT_EQ(est.rounds, 3);
  // Geometric series: copy time < 1000/125 × 1/(1 − 0.2) + slack.
  EXPECT_LT(est.copy_s, 1000.0 / 125.0 / 0.8 + 1.0);
  // Downtime bounded by the threshold copy time.
  EXPECT_LE(est.downtime_s, kStopCopyThresholdMb / 125.0 + 1e-9);
  EXPECT_GT(est.downtime_s, 0.0);
}

TEST(PreCopyTest, DirtyRateAboveLinkNeverConverges) {
  // Guest dirties faster than the link copies: one round, then a long
  // stop-and-copy of (up to) the whole RAM.
  const MigrationEstimate est = precopy_migration(1024.0, 1000.0, 200.0);
  EXPECT_FALSE(est.converged);
  EXPECT_EQ(est.rounds, 1);
  EXPECT_NEAR(est.downtime_s, 1024.0 / 125.0, 1e-6);  // whole RAM re-copied
}

TEST(PreCopyTest, DowntimeIncreasesWithDirtyRate) {
  double previous = -1.0;
  for (double rate : {5.0, 20.0, 60.0, 120.0}) {
    const MigrationEstimate est = precopy_migration(2048.0, 1000.0, rate);
    EXPECT_GE(est.downtime_s, previous) << "rate " << rate;
    previous = est.downtime_s;
  }
}

TEST(PreCopyTest, RoundCapForcesStopAndCopy) {
  // 124 MB/s dirty on a 125 MB/s link: the set shrinks by only 0.8% a
  // round (1000 MB → ~786 MB after 30 rounds), so the round cap, not the
  // threshold, ends the copy.
  const MigrationEstimate est = precopy_migration(1000.0, 1000.0, 124.0);
  EXPECT_FALSE(est.converged);
  EXPECT_EQ(est.rounds, kPreCopyMaxRounds);
  EXPECT_GT(est.downtime_s, kStopCopyThresholdMb / 125.0);
}

TEST(PreCopyTest, EffectiveDirtyRateScalesWithUtilization) {
  const PreCopyConfig config;  // floor 0.2, rate 40
  EXPECT_NEAR(effective_dirty_rate(0.0, config), 8.0, 1e-12);
  EXPECT_NEAR(effective_dirty_rate(1.0, config), 40.0, 1e-12);
  EXPECT_NEAR(effective_dirty_rate(0.5, config), 24.0, 1e-12);
  // Clamped outside [0, 1].
  EXPECT_NEAR(effective_dirty_rate(3.0, config), 40.0, 1e-12);
}

TEST(PreCopyTest, InvalidInputsRejected) {
  EXPECT_THROW(precopy_migration(0.0, 1000.0, 10.0), ConfigError);
  EXPECT_THROW(precopy_migration(512.0, 0.0, 10.0), ConfigError);
  PreCopyConfig bad;
  bad.dirty_rate_mb_per_s = -1.0;
  EXPECT_THROW(
      precopy_migration(512.0, 1000.0, effective_dirty_rate(0.5, bad)),
      ConfigError);
}

// --- engine integration ---

class MoveOnePolicy : public MigrationPolicy {
 public:
  std::string name() const override { return "MoveOne"; }
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override {
    if (obs.step == 0) out.push_back(MigrationAction{0, 1});
  }
};

double run_with_model(SimulationConfig::MigrationTimeModel model,
                      double vm_util) {
  std::vector<VmSpec> specs{{2000, 2048, 100}};
  Datacenter dc(standard_host_fleet(2), specs);
  dc.place(0, 0);
  TraceTable trace(1, 4);
  for (int s = 0; s < 4; ++s) trace.set(0, s, vm_util);
  SimulationConfig config;
  config.migration_model = model;
  MoveOnePolicy policy;
  Simulation sim(std::move(dc), trace, config);
  return sim.run(policy).totals.sla_cost_usd;
}

TEST(PreCopyIntegrationTest, BusyGuestCostsMoreToMoveThanIdle) {
  const double idle =
      run_with_model(SimulationConfig::MigrationTimeModel::kPreCopy, 0.05);
  const double busy =
      run_with_model(SimulationConfig::MigrationTimeModel::kPreCopy, 0.9);
  EXPECT_GE(busy, idle);
}

TEST(PreCopyIntegrationTest, PreCopyCostsAtLeastFlatModel) {
  // Pre-copy transfers at least the full RAM (round 0) plus extra rounds,
  // so its charged service degradation can't be below the flat model's.
  const double flat =
      run_with_model(SimulationConfig::MigrationTimeModel::kFlat, 0.5);
  const double precopy =
      run_with_model(SimulationConfig::MigrationTimeModel::kPreCopy, 0.5);
  EXPECT_GE(precopy + 1e-12, flat);
}

}  // namespace
}  // namespace megh
