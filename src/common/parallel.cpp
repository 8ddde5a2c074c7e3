#include "common/parallel.hpp"

#include <algorithm>

namespace megh {

int default_parallelism(std::size_t items) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = hw == 0 ? 1 : static_cast<int>(hw);
  if (items == 0) return 1;
  return std::min<int>(threads, static_cast<int>(items));
}

ThreadPool::ThreadPool(int jobs) {
  MEGH_REQUIRE(jobs >= 1, "ThreadPool: jobs must be >= 1");
  workers_.reserve(static_cast<std::size_t>(jobs - 1));
  for (int w = 0; w < jobs - 1; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::claim_items() {
  // Items are claimed one at a time from a shared counter. Once any item
  // throws, no new ones are dispatched: in-flight items finish (partial
  // results stay consistent) but the rest of the range is abandoned, so a
  // failure at item 3 of 10'000 does not burn the other 9'996 before the
  // rethrow. Relaxed atomics are enough because item results are
  // published by the join barrier in run_erased (the done_cv_ handshake),
  // not by the counter itself.
  while (!cancelled_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    try {
      invoke_(ctx_, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      cancelled_.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lock.unlock();
    claim_items();
    lock.lock();
    if (++done_workers_ == static_cast<int>(workers_.size())) {
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_erased(std::size_t count,
                            void (*invoke)(void*, std::size_t), void* ctx) {
  if (count == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) invoke(ctx, i);
    return;
  }
  {
    // Publish the job before the generation bump: workers read these
    // fields only after observing the new generation under the same
    // mutex, so the handoff is a proper happens-before edge (TSan-clean).
    const std::lock_guard<std::mutex> lock(mutex_);
    count_ = count;
    invoke_ = invoke;
    ctx_ = ctx;
    next_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    done_workers_ = 0;
    ++generation_;
  }
  wake_.notify_all();
  claim_items();  // the dispatching thread is worker 0
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return done_workers_ == static_cast<int>(workers_.size());
    });
  }
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

ShardPlan ShardPlan::single(int count) {
  MEGH_REQUIRE(count >= 0, "ShardPlan: negative count");
  return ShardPlan(std::vector<int>{0, count});
}

ShardPlan ShardPlan::blocks(int count, int shard_size) {
  MEGH_REQUIRE(count >= 0, "ShardPlan: negative count");
  MEGH_REQUIRE(shard_size > 0, "ShardPlan: shard_size must be positive");
  std::vector<int> bounds;
  bounds.reserve(static_cast<std::size_t>(count / shard_size) + 2);
  bounds.push_back(0);
  while (bounds.back() < count) {
    bounds.push_back(std::min(count, bounds.back() + shard_size));
  }
  if (bounds.size() == 1) bounds.push_back(0);  // count == 0: one empty shard
  return ShardPlan(std::move(bounds));
}

ShardPlan ShardPlan::from_bounds(std::vector<int> bounds) {
  MEGH_REQUIRE(bounds.size() >= 2 && bounds.front() == 0,
               "ShardPlan: bounds must start at 0");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    MEGH_REQUIRE(bounds[i] > bounds[i - 1],
                 "ShardPlan: bounds must strictly increase");
  }
  return ShardPlan(std::move(bounds));
}

ShardExecutor::ShardExecutor(ShardPlan plan, int jobs) : plan_(std::move(plan)) {
  MEGH_REQUIRE(jobs >= 0, "ShardExecutor: negative job count");
  int want = jobs == 0 ? default_parallelism(
                             static_cast<std::size_t>(plan_.num_shards()))
                       : jobs;
  want = std::min(want, std::max(1, plan_.num_shards()));
  if (want > 1) pool_ = std::make_unique<ThreadPool>(want);
}

}  // namespace megh
