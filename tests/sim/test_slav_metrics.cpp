// Beloglazov composite metrics (SLATAH, PDM, SLAV, ESV) — the native units
// of the MMT comparators' original evaluation, computed by the engine.
#include <gtest/gtest.h>

#include "baselines/simple_policies.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"

namespace megh {
namespace {

TEST(SlavMetricsTest, QuietSystemHasZeroSlavMetrics) {
  std::vector<VmSpec> specs(4, VmSpec{1000, 512, 100});
  Datacenter dc(standard_host_fleet(4), specs);
  Rng rng(1);
  place_initial(dc, InitialPlacement::kRoundRobin, rng);
  TraceTable trace(4, 10);
  for (int vm = 0; vm < 4; ++vm) {
    for (int s = 0; s < 10; ++s) trace.set(vm, s, 0.2);
  }
  NoMigrationPolicy policy;
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  const auto totals = sim.run(policy).totals;
  EXPECT_DOUBLE_EQ(totals.slatah, 0.0);
  EXPECT_DOUBLE_EQ(totals.pdm, 0.0);
  EXPECT_DOUBLE_EQ(totals.slav, 0.0);
  EXPECT_DOUBLE_EQ(totals.esv, 0.0);
  EXPECT_GT(totals.energy_kwh, 0.0);
}

TEST(SlavMetricsTest, PermanentOverloadGivesSlatahOne) {
  // One host, always overloaded; second host never active.
  std::vector<VmSpec> specs{{2500, 512, 100}, {2500, 512, 100}};
  Datacenter dc(standard_host_fleet(2), specs);
  dc.place(0, 0);
  dc.place(1, 0);
  TraceTable trace(2, 8);
  for (int vm = 0; vm < 2; ++vm) {
    for (int s = 0; s < 8; ++s) trace.set(vm, s, 1.0);
  }
  NoMigrationPolicy policy;
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  const auto totals = sim.run(policy).totals;
  // SLATAH averages over hosts that were ever active: only host 0, at 1.0.
  EXPECT_DOUBLE_EQ(totals.slatah, 1.0);
  EXPECT_DOUBLE_EQ(totals.pdm, 0.0);  // no migrations
  EXPECT_DOUBLE_EQ(totals.slav, 0.0);
}

TEST(SlavMetricsTest, PdmMatchesHandComputation) {
  std::vector<VmSpec> specs{{1000, 1024, 100}, {1000, 512, 100}};
  Datacenter dc(standard_host_fleet(3), specs);
  dc.place(0, 0);
  dc.place(1, 1);
  TraceTable trace(2, 4);
  for (int vm = 0; vm < 2; ++vm) {
    for (int s = 0; s < 4; ++s) trace.set(vm, s, 0.1);
  }
  class MoveOnce : public MigrationPolicy {
   public:
    std::string name() const override { return "MoveOnce"; }
    void decide_into(const StepObservation& obs,
                     std::vector<MigrationAction>& out) override {
      if (obs.step == 1) out.push_back(MigrationAction{0, 2});
    }
  } policy;
  Simulation sim(std::move(dc), trace, SimulationConfig{});
  const auto totals = sim.run(policy).totals;
  // VM 0: TM = 1024 MB over the source host's 1 Gbps = 8.192 s; 2%
  // charged = 0.16384 s over 4 × 300 s requested. VM 1: 0.
  const double expected_pdm = (0.16384 / 1200.0 + 0.0) / 2.0;
  EXPECT_NEAR(totals.pdm, expected_pdm, 1e-9);
  EXPECT_DOUBLE_EQ(totals.slav, totals.slatah * totals.pdm);
  EXPECT_NEAR(totals.esv, totals.energy_kwh * totals.slav, 1e-15);
}

TEST(SlavMetricsTest, EnergyKwhMatchesCostArithmetic) {
  std::vector<VmSpec> specs(2, VmSpec{1000, 512, 100});
  Datacenter dc(standard_host_fleet(2), specs);
  Rng rng(1);
  place_initial(dc, InitialPlacement::kRoundRobin, rng);
  TraceTable trace(2, 6);
  for (int vm = 0; vm < 2; ++vm) {
    for (int s = 0; s < 6; ++s) trace.set(vm, s, 0.0);
  }
  NoMigrationPolicy policy;
  SimulationConfig config;
  Simulation sim(std::move(dc), trace, config);
  const auto totals = sim.run(policy).totals;
  // Idle G4 (86 W) + idle G5 (93.7 W) for 6 × 300 s.
  const double expected_kwh = (86.0 + 93.7) * 1800.0 / 3.6e6;
  EXPECT_NEAR(totals.energy_kwh, expected_kwh, 1e-9);
  EXPECT_NEAR(totals.energy_cost_usd,
              expected_kwh * kEnergyPriceUsdPerKwh, 1e-9);
}

}  // namespace
}  // namespace megh
