// FaultPlan / FaultInjector unit coverage: compilation is a pure function
// of (config, hosts, steps), hand-built schedules are validated and
// canonicalized, the stateless abort channel behaves like its rate, and the
// injector replays a schedule into the documented per-step state.
#include "chaos/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "chaos/fault_injector.hpp"
#include "common/error.hpp"

namespace megh {
namespace {

FaultPlanConfig busy_config(std::uint64_t seed) {
  FaultPlanConfig config;
  config.enabled = true;
  config.seed = seed;
  config.migration_abort_rate = 0.2;
  config.host_failure_rate = 0.01;
  config.network_degradation_rate = 0.05;
  config.trace_gap_rate = 0.03;
  return config;
}

TEST(FaultPlanTest, ZeroRatesCompileToZeroPlan) {
  FaultPlanConfig config;
  config.enabled = true;
  config.seed = 99;
  ASSERT_TRUE(config.zero_rates());
  const FaultPlan plan = FaultPlan::compile(config, 32, 500);
  EXPECT_TRUE(plan.zero());
  EXPECT_TRUE(plan.events().empty());
  for (int step = 0; step < 500; ++step) {
    EXPECT_FALSE(plan.abort_migration(step, 0));
  }
}

TEST(FaultPlanTest, CompileIsDeterministic) {
  const FaultPlan a = FaultPlan::compile(busy_config(7), 24, 288);
  const FaultPlan b = FaultPlan::compile(busy_config(7), 24, 288);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_FALSE(a.events().empty());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].step, b.events()[i].step);
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    EXPECT_EQ(a.events()[i].host, b.events()[i].host);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
    EXPECT_EQ(a.events()[i].duration_steps, b.events()[i].duration_steps);
  }
  // A different seed reshuffles the schedule.
  const FaultPlan c = FaultPlan::compile(busy_config(8), 24, 288);
  bool same = a.events().size() == c.events().size();
  if (same) {
    for (std::size_t i = 0; i < a.events().size(); ++i) {
      same = same && a.events()[i].step == c.events()[i].step &&
             a.events()[i].host == c.events()[i].host;
    }
  }
  EXPECT_FALSE(same);
}

TEST(FaultPlanTest, CompiledEventsAreCanonicalAndInShape) {
  const FaultPlan plan = FaultPlan::compile(busy_config(3), 16, 400);
  int failures = 0;
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    const FaultEvent& e = plan.events()[i];
    EXPECT_GE(e.step, 0);
    EXPECT_LT(e.step, 400);
    if (e.type == FaultClass::kHostFailure) {
      ++failures;
      EXPECT_GE(e.host, 0);
      EXPECT_LT(e.host, 16);
      EXPECT_GE(e.duration_steps, 1);
    }
    if (e.type == FaultClass::kNetworkDegradation) {
      EXPECT_GT(e.magnitude, 0.0);
      EXPECT_LE(e.magnitude, 1.0);
    }
    if (i > 0) {
      EXPECT_LE(plan.events()[i - 1].step, e.step);  // sorted
    }
  }
  EXPECT_GT(failures, 0);
}

TEST(FaultPlanTest, ConfigValidationRejectsBadShapes) {
  FaultPlanConfig bad = busy_config(1);
  bad.migration_abort_rate = 1.5;
  EXPECT_THROW(FaultPlan::compile(bad, 8, 100), Error);
  bad = busy_config(1);
  bad.host_downtime_steps_min = 10;
  bad.host_downtime_steps_max = 3;
  EXPECT_THROW(FaultPlan::compile(bad, 8, 100), Error);
  bad = busy_config(1);
  bad.degraded_bandwidth_factor = 0.0;
  EXPECT_THROW(FaultPlan::compile(bad, 8, 100), Error);
  EXPECT_THROW(FaultPlan::compile(busy_config(1), 0, 100), Error);
  EXPECT_THROW(FaultPlan::compile(busy_config(1), 8, 0), Error);
}

TEST(FaultPlanTest, FromEventsSortsAndValidates) {
  const FaultPlan plan = FaultPlan::from_events(
      {
          {9, FaultClass::kHostRecovery, 2, 0.0, 0},
          {4, FaultClass::kTraceGap, -1, 0.0, 2},
          {4, FaultClass::kHostFailure, 2, 0.0, 5},
      },
      0.5, 11, 4, 20);
  ASSERT_EQ(plan.events().size(), 3u);
  // Canonical order: step, then class, then host.
  EXPECT_EQ(plan.events()[0].type, FaultClass::kHostFailure);
  EXPECT_EQ(plan.events()[1].type, FaultClass::kTraceGap);
  EXPECT_EQ(plan.events()[2].type, FaultClass::kHostRecovery);
  EXPECT_FALSE(plan.zero());
  EXPECT_EQ(plan.migration_abort_rate(), 0.5);

  // Bad host index, bad step, unschedulable abort event.
  EXPECT_THROW(FaultPlan::from_events(
                   {{0, FaultClass::kHostFailure, 4, 0.0, 1}}, 0.0, 1, 4, 20),
               Error);
  EXPECT_THROW(FaultPlan::from_events(
                   {{20, FaultClass::kTraceGap, -1, 0.0, 1}}, 0.0, 1, 4, 20),
               Error);
  EXPECT_THROW(
      FaultPlan::from_events({{0, FaultClass::kMigrationAbort, -1, 0.0, 0}},
                             0.0, 1, 4, 20),
      Error);
}

TEST(FaultPlanTest, AbortChannelIsStatelessAndTracksRate) {
  const FaultPlan plan =
      FaultPlan::from_events({}, 0.3, 1234, 8, 1 << 14);
  long long hits = 0;
  const int draws = 1 << 14;
  for (int i = 0; i < draws; ++i) {
    const bool a = plan.abort_migration(i, i % 7);
    // Stateless: re-asking the same (step, ordinal) gives the same answer.
    EXPECT_EQ(a, plan.abort_migration(i, i % 7));
    hits += a ? 1 : 0;
  }
  const double rate = static_cast<double>(hits) / draws;
  EXPECT_NEAR(rate, 0.3, 0.02);

  // Degenerate rates short-circuit.
  EXPECT_FALSE(
      FaultPlan::from_events({}, 0.0, 1, 8, 10).abort_migration(0, 0));
  EXPECT_TRUE(
      FaultPlan::from_events({}, 1.0, 1, 8, 10).abort_migration(0, 0));
}

TEST(FaultPlanTest, HashUniformIsInRangeAndSeedSensitive) {
  double sum = 0.0;
  for (int i = 0; i < 4096; ++i) {
    const double u = detail::hash_uniform(42, i, 0);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 4096.0, 0.5, 0.03);
  EXPECT_NE(detail::hash_uniform(1, 5, 0), detail::hash_uniform(2, 5, 0));
  EXPECT_NE(detail::hash_uniform(1, 5, 0), detail::hash_uniform(1, 6, 0));
  EXPECT_NE(detail::hash_uniform(1, 5, 0), detail::hash_uniform(1, 5, 1));
}

TEST(FaultInjectorTest, ReplaysScheduleIntoPerStepState) {
  // Host 1 down over [2, 5), degradation 0.25x over [3, 5), trace gap at
  // [4, 6).
  const FaultPlan plan = FaultPlan::from_events(
      {
          {2, FaultClass::kHostFailure, 1, 0.0, 3},
          {5, FaultClass::kHostRecovery, 1, 0.0, 0},
          {3, FaultClass::kNetworkDegradation, -1, 0.25, 2},
          {4, FaultClass::kTraceGap, -1, 0.0, 2},
      },
      0.0, 1, 4, 10);
  FaultInjector injector(plan, 4);
  for (int step = 0; step < 10; ++step) {
    injector.begin_step(step);
    const bool down = step >= 2 && step < 5;
    EXPECT_EQ(injector.host_down(1), down) << "step " << step;
    EXPECT_EQ(injector.hosts_down(), down ? 1 : 0);
    EXPECT_EQ(injector.down_mask()[1] != 0, down);
    EXPECT_FALSE(injector.host_down(0));
    const double factor = (step >= 3 && step < 5) ? 0.25 : 1.0;
    EXPECT_EQ(injector.bandwidth_factor(), factor) << "step " << step;
    EXPECT_EQ(injector.in_trace_gap(), step >= 4 && step < 6)
        << "step " << step;
    if (step == 2) {
      ASSERT_EQ(injector.failed_this_step().size(), 1u);
      EXPECT_EQ(injector.failed_this_step()[0], 1);
    } else {
      EXPECT_TRUE(injector.failed_this_step().empty());
    }
    if (step == 5) {
      ASSERT_EQ(injector.recovered_this_step().size(), 1u);
      EXPECT_EQ(injector.recovered_this_step()[0], 1);
    } else {
      EXPECT_TRUE(injector.recovered_this_step().empty());
    }
  }
  EXPECT_EQ(injector.total_events_applied(), 4);
}

TEST(FaultInjectorTest, ZeroPlanIsAConstantNoFaultView) {
  const FaultPlan plan = FaultPlan::from_events({}, 0.0, 5, 3, 50);
  ASSERT_TRUE(plan.zero());
  FaultInjector injector(plan, 3);
  for (int step = 0; step < 50; ++step) {
    injector.begin_step(step);
    EXPECT_EQ(injector.hosts_down(), 0);
    EXPECT_EQ(injector.bandwidth_factor(), 1.0);
    EXPECT_FALSE(injector.in_trace_gap());
    EXPECT_EQ(injector.events_this_step(), 0);
    EXPECT_FALSE(injector.abort_migration(0));
  }
  EXPECT_EQ(injector.total_events_applied(), 0);
}

TEST(FaultPlanTest, SummaryMentionsTheScheduleShape) {
  const FaultPlan plan = FaultPlan::compile(busy_config(21), 16, 200);
  const std::string s = plan.summary();
  EXPECT_NE(s.find("host failure"), std::string::npos);
  EXPECT_NE(s.find("abort rate"), std::string::npos);
}

}  // namespace
}  // namespace megh
