#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "baselines/simple_policies.hpp"
#include "harness/experiment.hpp"

namespace megh {
namespace {

// --- the parallel-for: ThreadPool::run ---------------------------------

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  pool.run(visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ZeroItemsIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, CancelsRemainingItemsAfterFirstFailure) {
  // Every item throws. A worker that catches an exception sets the cancel
  // flag before re-checking it, so each of the two workers (the caller
  // included) dispatches exactly one item and the other 998 are abandoned
  // — without cancellation this would attempt all 1000.
  ThreadPool pool(2);
  std::atomic<int> attempts{0};
  EXPECT_THROW(pool.run(1000,
                        [&](std::size_t) {
                          ++attempts;
                          throw ConfigError("boom");
                        }),
               ConfigError);
  EXPECT_LE(attempts.load(), 2);  // at most one attempt per worker
}

TEST(ParallelExperimentsTest, ConcurrentRunsMatchSequential) {
  // The core thread-safety property the sweep benches rely on: running the
  // same seeded experiment concurrently and sequentially yields identical
  // totals.
  const Scenario scenario = make_planetlab_scenario(12, 18, 40, 5);
  const auto run_one = [&](std::uint64_t seed) {
    RandomPolicy policy(1, seed);
    ExperimentOptions options;
    return run_experiment(scenario, policy, options).sim.totals;
  };
  std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<SimulationTotals> parallel_totals(seeds.size());
  ThreadPool(4).run(seeds.size(), [&](std::size_t i) {
    parallel_totals[i] = run_one(seeds[i]);
  });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto sequential = run_one(seeds[i]);
    EXPECT_DOUBLE_EQ(parallel_totals[i].total_cost_usd,
                     sequential.total_cost_usd)
        << "seed " << seeds[i];
    EXPECT_EQ(parallel_totals[i].migrations, sequential.migrations);
  }
}

TEST(DefaultParallelismTest, Bounds) {
  EXPECT_GE(default_parallelism(100), 1);
  EXPECT_LE(default_parallelism(2), 2);
  EXPECT_EQ(default_parallelism(0), 1);
}

// --- persistent pool ------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryItemAcrossReuses) {
  // The step loop dispatches thousands of jobs through one pool; the
  // generation handshake must not lose or re-run items across reuses.
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  for (std::size_t count : {1u, 7u, 64u, 1000u}) {
    std::atomic<std::size_t> sum{0};
    pool.run(count, [&](std::size_t i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), count * (count + 1) / 2) << "count " << count;
  }
}

TEST(ThreadPoolTest, SingleJobRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  std::vector<int> order;
  pool.run(4, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, ExceptionRethrownAndPoolStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run(100,
                        [](std::size_t i) {
                          if (i == 5) throw ConfigError("boom");
                        }),
               ConfigError);
  // The pool must recover: the next job runs every item.
  std::atomic<int> count{0};
  pool.run(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

// --- shard plans and executors -------------------------------------------

TEST(ShardPlanTest, BlocksPartitionWithRaggedTail) {
  const ShardPlan plan = ShardPlan::blocks(10, 4);
  ASSERT_EQ(plan.num_shards(), 3);
  EXPECT_EQ(plan.count(), 10);
  EXPECT_EQ(plan.shard_begin(0), 0);
  EXPECT_EQ(plan.shard_end(0), 4);
  EXPECT_EQ(plan.shard_begin(2), 8);
  EXPECT_EQ(plan.shard_end(2), 10);
  const ShardPlan one = ShardPlan::single(7);
  EXPECT_EQ(one.num_shards(), 1);
  EXPECT_EQ(one.shard_end(0), 7);
}

TEST(ShardExecutorTest, ForItemsCoversPlanOnceParallel) {
  const ShardExecutor exec(ShardPlan::blocks(100, 30), /*jobs=*/4);
  EXPECT_TRUE(exec.parallel());
  std::vector<std::atomic<int>> visits(100);
  exec.for_items([&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ShardExecutorTest, SerialExecutorRunsShardsInOrder) {
  const ShardExecutor exec(ShardPlan::blocks(10, 4), /*jobs=*/1);
  EXPECT_FALSE(exec.parallel());
  EXPECT_EQ(exec.jobs(), 1);
  std::vector<int> shards;
  exec.for_shards([&](int s) { shards.push_back(s); });
  EXPECT_EQ(shards, (std::vector<int>{0, 1, 2}));
}

TEST(ShardExecutorTest, WorkersClampedToShardCount) {
  // One shard can't use eight workers — no pool is spun up at all.
  const ShardExecutor exec(ShardPlan::single(10), /*jobs=*/8);
  EXPECT_FALSE(exec.parallel());
}

}  // namespace
}  // namespace megh
