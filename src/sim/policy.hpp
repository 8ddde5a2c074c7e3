// The migration-policy interface: the single seam between the simulator and
// every decision algorithm (Megh, the MMT family, MadVM, Q-learning, and any
// user-supplied scheduler — see examples/custom_policy.cpp).
//
// A policy answers the paper's three questions each interval: *when* to
// migrate (return no actions to do nothing), *which* VM, and *where*
// (the target host of each action).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/datacenter.hpp"
#include "sim/network.hpp"
#include "sim/policy_stats.hpp"

namespace megh {

/// One migration decision: move `vm` to `target_host`. Actions whose target
/// equals the VM's current host are no-ops; infeasible actions (RAM) are
/// rejected by the engine and counted in StepSnapshot::rejected_migrations.
struct MigrationAction {
  int vm = 0;
  int target_host = 0;
};

/// Everything a policy may look at when deciding.
struct StepObservation {
  int step = 0;
  double interval_s = 0.0;
  const Datacenter* dc = nullptr;
  /// Demanded utilization of each VM (fraction of the VM's MIPS).
  std::span<const double> vm_util;
  /// Demanded utilization of each host (fraction of host MIPS; may be > 1).
  std::span<const double> host_util;
  /// Cost C(s_{t-1}, s_t) observed for the previous interval (0 at step 0).
  double last_step_cost = 0.0;
  const CostConfig* cost = nullptr;
  /// Fat-tree fabric when the simulation has one attached (else nullptr).
  /// Network-aware policies may prefer short migration paths.
  const FatTreeTopology* network = nullptr;
  /// Fault view (chaos subsystem): one byte per host, nonzero = the host is
  /// down this step. Empty when no fault plan is attached. Fault-aware
  /// policies mask down hosts out of their target sets; migrations that
  /// target a down host anyway are rejected by the engine (and reported via
  /// observe_outcomes as kTargetDown).
  std::span<const std::uint8_t> host_down;
  /// Sharded-step execution context (pods on a fabric, contiguous blocks
  /// otherwise; see sim/sharding.hpp). Policies may fan their per-host
  /// scans across it — Megh's candidate generator and the MMT planner's
  /// PABFD inner loop do — as long as every cross-shard merge is exact, so
  /// the decision stays bit-identical at any job count (including this
  /// being nullptr, which unsharded callers pass).
  const ShardExecutor* exec = nullptr;
};

/// What the engine did with one requested migration — fed back to the
/// policy through observe_outcomes() in request order.
enum class MigrationVerdict : std::uint8_t {
  kApplied = 0,     // VM moved to the requested target
  kRejected = 1,    // no-op, RAM misfit, or over the per-step cap
  kTargetDown = 2,  // target host is down (chaos host failure)
  kAborted = 3,     // migration aborted mid-copy (chaos); VM stayed on
                    // source, copy cost was still charged
};

struct MigrationOutcome {
  int vm = 0;
  int target_host = 0;
  MigrationVerdict verdict = MigrationVerdict::kApplied;
};

class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;

  virtual std::string name() const = 0;

  /// Called once before the first step with the initial allocation.
  virtual void begin(const Datacenter& dc, const CostConfig& cost,
                     double interval_s) {
    (void)dc;
    (void)cost;
    (void)interval_s;
  }

  /// Decide this interval's migrations, appending them to `out` (cleared
  /// and reused by the caller across steps, so a policy that stores its
  /// working state in member scratch allocates nothing per step). This is
  /// the primitive every policy implements, and the call the engine
  /// wall-clock times — the "execution time" metric of the paper's
  /// evaluation. Batch-minded policies read obs.exec to shard their
  /// per-host scans.
  virtual void decide_into(const StepObservation& obs,
                           std::vector<MigrationAction>& out) = 0;

  /// Convenience wrapper (tests, notebooks, one-shot callers): decide into
  /// a fresh vector. Non-virtual — decide_into is the one override point,
  /// which is what lets the engine promise a buffer-reusing hot path for
  /// every policy instead of only the ones that opted in.
  std::vector<MigrationAction> decide(const StepObservation& obs) {
    std::vector<MigrationAction> actions;
    decide_into(obs, actions);
    return actions;
  }

  /// Feedback: the realized cost of the interval the last decide() shaped.
  /// Learning policies (Megh, MadVM, Q-learning) update here; heuristics
  /// ignore it.
  virtual void observe_cost(double step_cost) { (void)step_cost; }

  /// Feedback: one verdict per action the last decide() requested, in
  /// request order, delivered right after the engine applied them. Under a
  /// fault plan the realized next state can differ from the intended one
  /// (aborted migrations, down targets); recovery-aware policies correct
  /// their learning signal here. Default: ignore.
  virtual void observe_outcomes(std::span<const MigrationOutcome> outcomes) {
    (void)outcomes;
  }

  /// Optional introspection counters (e.g. Megh's Q-table nnz for Fig. 7),
  /// written into each StepSnapshot's flat stats table. Implementations
  /// intern their StatKeys once (function-local statics are idiomatic) and
  /// call out.set(key, value); the engine clears `out` beforehand.
  virtual void stats(PolicyStats& out) const { (void)out; }
};

}  // namespace megh
