// The discrete-time simulation engine — the reproduction's stand-in for
// CloudSim's power-aware datacenter loop.
//
// Per interval (τ = 300 s by default, Sec. 6.1):
//   1. demands are read from the trace;
//   2. the policy is asked for migrations (wall-clock timed);
//   3. valid migrations are applied, charging RAM/BW migration downtime;
//   4. overload downtime is charged for hosts above β;
//   5. energy (Eq. 2) and SLA (Eq. 3) costs are settled into the step cost
//      C(s_{t-1}, s_t) (Eq. 6) and fed back to the policy;
//   6. a StepSnapshot is recorded.
#pragma once

#include <functional>
#include <memory>

#include "chaos/fault_plan.hpp"
#include "sim/cost_model.hpp"
#include "sim/datacenter.hpp"
#include "sim/migration_model.hpp"
#include "sim/network.hpp"
#include "sim/policy.hpp"
#include "sim/snapshot.hpp"
#include "telemetry/trace_sink.hpp"
#include "trace/trace_table.hpp"

namespace megh {

struct SimulationConfig {
  double interval_s = 300.0;
  CostConfig cost;
  /// Cap on migrations applied per step, as a fraction of the VM count
  /// (paper Sec. 6.1: "we allow a maximum 2% of VMs to be migrated by
  /// Megh" — the engine enforces it uniformly so no policy can cheat).
  /// <= 0 disables the cap. MMT algorithms in the paper are uncapped.
  double max_migration_fraction = 0.0;
  /// Migration timing model: kFlat is the paper's RAM/BW bulk copy;
  /// kPreCopy simulates iterative pre-copy rounds (Clark et al. [4]) where
  /// only the final stop-and-copy pause is hard downtime and busy guests
  /// (higher dirty rates) cost more to move.
  enum class MigrationTimeModel { kFlat, kPreCopy };
  MigrationTimeModel migration_model = MigrationTimeModel::kFlat;
  PreCopyConfig precopy;
  /// Optional fat-tree fabric (paper Sec. 7 future work). When set,
  /// migration copy time uses the source→target path bandwidth instead of
  /// the source host NIC, and snapshots count per-tier migrations. The
  /// topology must have capacity >= the datacenter's host count.
  std::shared_ptr<const FatTreeTopology> network;
  /// Worker count for the sharded step (see sim/sharding.hpp): demand
  /// refresh, utilization/SLA accounting, the power scan and the policy's
  /// candidate scans run as per-pod shards (contiguous blocks without a
  /// fabric) across this many workers, the caller included. 1 = serial
  /// (the timing-grade default), 0 = hardware concurrency. Decision
  /// outputs and every snapshot column except exec_ms are bit-identical
  /// at any value — all cross-shard merges are exact, and the few
  /// genuinely order-sensitive floating-point folds stay serial.
  int jobs = 1;
  /// Optional fault plan (chaos subsystem, src/chaos). When set, the step
  /// loop replays the plan through a FaultInjector: migrations may abort
  /// mid-copy (cost still charged, VM stays on source), hosts crash (their
  /// VMs are force-evacuated to the live host with the most free RAM, or
  /// stranded with zero service when nothing fits) and later recover, the
  /// fabric bandwidth degrades for scheduled windows, and telemetry gaps
  /// freeze demands at the last observed trace column. Down hosts draw no
  /// power and accrue no overload/active time. A zero() plan is
  /// decision-identical to running without one. The plan must be compiled
  /// for this datacenter's host count and at least the steps run.
  std::shared_ptr<const FaultPlan> faults;
  /// Optional per-step hook, invoked after the interval's costs are settled
  /// and its snapshot recorded (the last policy callback of the step has
  /// already run). Runs outside the timed decide phase, so a slow hook —
  /// megh_sim's --checkpoint-every durable snapshots ride here — never
  /// pollutes the exec_ms metric. Exceptions propagate out of run().
  std::function<void(const StepSnapshot&)> on_step;
};

/// Structured error thrown by Simulation::run when a policy returns an
/// action naming a nonexistent VM or host — a policy programming bug
/// surfaced with full context instead of being silently dropped (or
/// tripping an opaque assert deeper in the datacenter).
class InvalidActionError : public Error {
 public:
  InvalidActionError(const std::string& policy, int step, int vm,
                     int target_host, int num_vms, int num_hosts);

  const std::string& policy() const { return policy_; }
  int step() const { return step_; }
  int vm() const { return vm_; }
  int target_host() const { return target_host_; }

 private:
  std::string policy_;
  int step_;
  int vm_;
  int target_host_;
};

/// The trace record of one step. Counters are the run's cumulative engine
/// counts read from `totals`, which must already include `snap`; gauges are
/// the step's cost, host and utilization fields plus every policy stat
/// under its own name. Live traces (Simulation::run) and cell traces (the
/// experiment engine) are both built here, so they carry the same numbers.
TraceRecord step_trace_record(const StepSnapshot& snap,
                              const SimulationTotals& totals);

class Simulation {
 public:
  /// The datacenter must have every VM placed; the trace must cover at
  /// least one step and exactly dc.num_vms() VMs.
  Simulation(Datacenter dc, const TraceTable& trace, SimulationConfig config);

  /// Run `num_steps` (default: the whole trace) under `policy`.
  SimulationResult run(MigrationPolicy& policy, int num_steps = -1);

  /// Access the (final) datacenter state after run().
  const Datacenter& datacenter() const { return dc_; }

 private:
  Datacenter dc_;
  const TraceTable& trace_;
  SimulationConfig config_;
};

}  // namespace megh
