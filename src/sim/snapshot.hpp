// Per-step measurement record produced by the simulation engine — the raw
// material for every table and figure in the paper's evaluation.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "sim/policy_stats.hpp"

namespace megh {

struct StepSnapshot {
  int step = 0;
  double energy_cost_usd = 0.0;   // ΔC_p for this interval
  double sla_cost_usd = 0.0;      // ΔC_v for this interval
  double step_cost_usd = 0.0;     // C(s_{t-1}, s_t) = ΔC_p + ΔC_v
  int migrations = 0;             // applied this interval
  int rejected_migrations = 0;    // requested but infeasible/no-op
  // With a network topology attached: migrations by path tier.
  int same_edge_migrations = 0;   // 2 hops
  int same_pod_migrations = 0;    // 4 hops
  int cross_pod_migrations = 0;   // 6 hops
  int active_hosts = 0;
  int overloaded_hosts = 0;       // hosts above beta after migrations
  double mean_host_util = 0.0;    // over active hosts
  double exec_ms = 0.0;           // wall-clock time of policy.decide()
  // --- chaos layer (all zero when no fault plan is attached) ---
  int aborted_migrations = 0;     // requested, drawn as mid-copy aborts
  int rejected_down_host = 0;     // requested against a down host
  int forced_evacuations = 0;     // engine-driven moves off failed hosts
  int stranded_vms = 0;           // VMs on a down host with nowhere to go
  int hosts_down = 0;             // hosts down at settle time
  int fault_events = 0;           // scheduled events applied + aborts drawn
  /// Flat interned-key policy counters (see sim/policy_stats.hpp).
  PolicyStats policy_stats;
};

/// Layout guard: recording a snapshot must never allocate. A std::map (or
/// any other heap-owning member) sneaking back into StepSnapshot breaks the
/// engine's zero-allocation step loop — this assert makes that a compile
/// error instead of a silent per-step malloc.
static_assert(std::is_trivially_copyable_v<StepSnapshot>,
              "StepSnapshot must stay trivially copyable (no heap-owning "
              "members; see sim/policy_stats.hpp)");

struct SimulationTotals {
  double total_cost_usd = 0.0;
  double energy_cost_usd = 0.0;
  double sla_cost_usd = 0.0;
  // --- Beloglazov composite SLA metrics (the comparators' native units) ---
  /// SLATAH: mean over hosts of (time overloaded / time active).
  double slatah = 0.0;
  /// PDM: mean over VMs of (migration downtime / requested time).
  double pdm = 0.0;
  /// SLAV = SLATAH × PDM.
  double slav = 0.0;
  /// ESV = energy (kWh) × SLAV.
  double esv = 0.0;
  double energy_kwh = 0.0;
  long long migrations = 0;
  long long rejected_migrations = 0;
  long long cross_pod_migrations = 0;
  // --- chaos layer (all zero when no fault plan is attached) ---
  long long aborted_migrations = 0;
  long long rejected_down_host = 0;
  long long forced_evacuations = 0;
  long long stranded_vm_steps = 0;  // Σ per-step stranded VM counts
  long long fault_events = 0;
  double mean_active_hosts = 0.0;
  double mean_exec_ms = 0.0;
  double max_exec_ms = 0.0;
  int steps = 0;

  /// Fold one step into the running sums and counts (costs, migrations,
  /// chaos counts, steps). The means, maxima and composite SLA metrics are
  /// computed once at the end of Simulation::run.
  void add_step(const StepSnapshot& snap);
};

struct SimulationResult {
  std::vector<StepSnapshot> steps;
  SimulationTotals totals;

  std::vector<double> series(const std::string& field) const;
};

}  // namespace megh
