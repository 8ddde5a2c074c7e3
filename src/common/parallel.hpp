// Deterministic parallel execution primitives.
//
// One mechanism: ThreadPool, a set of persistent parked workers that run
// fn(i) over an index range with the dispatching thread taking part.
// Everything parallel goes through it —
//   * ShardExecutor binds a pool to a ShardPlan for work dispatched
//     thousands of times per run (the sharded simulation step: per-pod
//     demand refresh, accounting, candidate scans and the per-pod Megh
//     learners every interval), where spawning threads per step would cost
//     more than the step;
//   * the experiment engine builds one pool per experiment and runs one
//     whole simulation cell per index.
//
// Determinism contract: the pool never reorders *results* — it only
// decides which thread computes which item. Callers that fold
// floating-point accumulations must either keep the fold serial or merge
// per-shard partials in shard order with an exact (non-reassociating)
// merge; see docs/PERFORMANCE.md "sharded step".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace megh {

/// Number of worker threads to use by default (hardware concurrency,
/// at least 1, capped to the number of items).
int default_parallelism(std::size_t items);

/// Persistent worker pool: the one parallel-for. Workers park on a
/// condition variable between jobs; the dispatching thread participates
/// in every job, so a pool built for J jobs spawns J-1 threads. Not re-entrant: one job at a time, and a
/// job's body must not call back into the same pool.
class ThreadPool {
 public:
  /// `jobs` total workers including the caller (>= 1). jobs == 1 spawns
  /// nothing and run() executes inline.
  explicit ThreadPool(int jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run fn(i) for i in [0, count) across the pool; returns when every
  /// item has finished. The first exception cancels dispatch of unclaimed
  /// items and is rethrown here.
  template <typename Fn>
  void run(std::size_t count, Fn&& fn) {
    run_erased(
        count,
        [](void* ctx, std::size_t i) {
          (*static_cast<std::remove_reference_t<Fn>*>(ctx))(i);
        },
        std::addressof(fn));
  }

 private:
  void run_erased(std::size_t count, void (*invoke)(void*, std::size_t),
                  void* ctx);
  void worker_main();
  void claim_items();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int done_workers_ = 0;
  bool stop_ = false;

  // Current job (published under mutex_ before the generation bump).
  std::size_t count_ = 0;
  void (*invoke_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> cancelled_{false};
  std::exception_ptr first_error_;
  std::mutex error_mutex_;
};

/// Contiguous partition of [0, count) into shards. The simulation step
/// shards hosts by fat-tree pod (pods are contiguous ascending host
/// ranges); topology-free runs use fixed-size blocks. The partition is a
/// pure function of the fleet/topology — never of the job count — so a
/// shard-merged result can be compared across job counts without the
/// partition itself being a variable.
class ShardPlan {
 public:
  /// Single shard covering [0, count).
  static ShardPlan single(int count);
  /// Fixed-size blocks of `shard_size` (last one ragged).
  static ShardPlan blocks(int count, int shard_size);
  /// Explicit bounds: bounds[0] == 0, strictly increasing, back() == count.
  static ShardPlan from_bounds(std::vector<int> bounds);

  int num_shards() const { return static_cast<int>(bounds_.size()) - 1; }
  int count() const { return bounds_.back(); }
  int shard_begin(int s) const {
    return bounds_[static_cast<std::size_t>(s)];
  }
  int shard_end(int s) const {
    return bounds_[static_cast<std::size_t>(s) + 1];
  }
  bool operator==(const ShardPlan&) const = default;

 private:
  explicit ShardPlan(std::vector<int> bounds) : bounds_(std::move(bounds)) {}
  std::vector<int> bounds_;  // size num_shards + 1
};

/// A ShardPlan bound to an optional ThreadPool: the execution context the
/// simulation step (and, through StepObservation::exec, the policies) use
/// to fan per-shard work out. jobs == 1 runs everything inline on the
/// caller — that path and any parallel path must produce bit-identical
/// results (the house determinism contract), which holds as long as every
/// cross-shard merge is exact.
class ShardExecutor {
 public:
  /// `jobs`: 1 = serial (no pool), 0 = hardware concurrency, else that
  /// many workers including the caller.
  ShardExecutor(ShardPlan plan, int jobs);

  const ShardPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }
  int jobs() const { return pool_ ? pool_->jobs() : 1; }
  bool parallel() const { return pool_ != nullptr; }

  /// Run fn(shard) for every shard.
  template <typename Fn>
  void for_shards(Fn&& fn) const {
    if (pool_) {
      pool_->run(static_cast<std::size_t>(plan_.num_shards()),
                 [&](std::size_t s) { fn(static_cast<int>(s)); });
    } else {
      for (int s = 0; s < plan_.num_shards(); ++s) fn(s);
    }
  }

  /// Run fn(item) for every item in [0, plan().count()), one shard per
  /// dispatch unit.
  template <typename Fn>
  void for_items(Fn&& fn) const {
    for_shards([&](int s) {
      const int end = plan_.shard_end(s);
      for (int i = plan_.shard_begin(s); i < end; ++i) fn(i);
    });
  }

 private:
  ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace megh
