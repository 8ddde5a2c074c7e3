// Declarative fault planning — the schedule half of the chaos subsystem.
//
// Megh's MDP formulation (Sec. 4) assumes every scheduled migration
// completes and every host stays up; real data centers do neither. The
// chaos layer makes failure a first-class, *reproducible* simulator input:
// a FaultPlanConfig declares per-class rates and duration distributions,
// FaultPlan::compile turns them into an explicit, seed-deterministic event
// schedule before the run starts, and the FaultInjector (fault_injector.hpp)
// replays that schedule inside the engine's step loop.
//
// Determinism contract: a plan is a pure function of
// (config, num_hosts, num_steps). It owns its own Rng stream — the
// simulation's and the policies' RNGs are never consulted — so a run under
// a fixed (seed, plan) is bit-identical at any --jobs, and a plan whose
// rates are all zero compiles to an empty schedule that leaves the engine's
// behaviour byte-for-byte unchanged. Migration aborts are the one fault
// class that cannot be scheduled ahead of time (they depend on which
// migrations a policy attempts); they are drawn through a stateless
// counter-based hash of (seed, step, ordinal), which keeps them just as
// replayable without an RNG cursor that could drift.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace megh {

/// The five fault classes of the chaos layer (ISSUE 5 / VMAgent-style
/// failure dynamics).
enum class FaultClass : std::uint8_t {
  kMigrationAbort = 0,     // a live migration fails mid-copy
  kHostFailure = 1,        // a PM crashes (powered off, VMs evacuated)
  kHostRecovery = 2,       // a crashed PM comes back
  kNetworkDegradation = 3, // fabric-wide bandwidth drops for a window
  kTraceGap = 4,           // telemetry outage: demands freeze for a window
};

/// One scheduled fault. host is meaningful for host failure/recovery;
/// magnitude is the bandwidth multiplier of a network degradation (in
/// (0, 1]); duration_steps spans degradation and trace-gap windows
/// ([step, step + duration_steps)).
struct FaultEvent {
  int step = 0;
  FaultClass type = FaultClass::kHostFailure;
  int host = -1;
  double magnitude = 0.0;
  int duration_steps = 0;
};

/// Declarative fault scenario: per-class rates (per-step probabilities) and
/// duration distributions, all driven by one dedicated seed. All rates
/// default to zero, i.e. "no faults". `enabled` gates whether harness
/// plumbing compiles and attaches a plan at all — an enabled plan with zero
/// rates is the decision-identity test fixture.
struct FaultPlanConfig {
  bool enabled = false;
  std::uint64_t seed = 7;

  /// Probability that an individual applied migration aborts mid-copy.
  double migration_abort_rate = 0.0;

  /// Per-host per-step crash probability, plus the uniform downtime range.
  double host_failure_rate = 0.0;
  int host_downtime_steps_min = 6;
  int host_downtime_steps_max = 24;

  /// Per-step probability a fabric-wide degradation window opens, the
  /// bandwidth multiplier applied while it lasts, and its duration range.
  double network_degradation_rate = 0.0;
  double degraded_bandwidth_factor = 0.25;
  int degradation_steps_min = 3;
  int degradation_steps_max = 12;

  /// Per-step probability a telemetry gap opens (demands freeze at the last
  /// observed column), and its duration range.
  double trace_gap_rate = 0.0;
  int trace_gap_steps_min = 1;
  int trace_gap_steps_max = 4;

  /// True when every rate is zero — the plan compiles to no events.
  bool zero_rates() const {
    return migration_abort_rate == 0.0 && host_failure_rate == 0.0 &&
           network_degradation_rate == 0.0 && trace_gap_rate == 0.0;
  }

  void validate() const;
};

/// A compiled, immutable fault schedule: events sorted by (step, class,
/// host) plus the abort-rate channel. Attach to SimulationConfig::faults.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Expand `config` into the deterministic schedule for a datacenter of
  /// `num_hosts` over `num_steps` intervals. Pure: same inputs, same plan.
  static FaultPlan compile(const FaultPlanConfig& config, int num_hosts,
                           int num_steps);

  /// Hand-built schedule (tests, scripted scenarios). Events are validated
  /// against the shape and sorted into canonical order.
  static FaultPlan from_events(std::vector<FaultEvent> events,
                               double migration_abort_rate,
                               std::uint64_t seed, int num_hosts,
                               int num_steps);

  const std::vector<FaultEvent>& events() const { return events_; }
  double migration_abort_rate() const { return migration_abort_rate_; }
  std::uint64_t seed() const { return seed_; }
  int num_hosts() const { return num_hosts_; }
  int num_steps() const { return num_steps_; }

  /// No scheduled events and a zero abort rate: attaching this plan must
  /// leave every simulation decision bit-identical to running without one.
  bool zero() const {
    return events_.empty() && migration_abort_rate_ == 0.0;
  }

  /// Stateless abort draw for the `ordinal`-th abort-eligible migration of
  /// `step` (counter-based hash — no RNG cursor, replayable in isolation).
  bool abort_migration(int step, int ordinal) const;

  /// "3 host failures, 1 degradation window, abort rate 0.1" — for logs.
  std::string summary() const;

 private:
  std::vector<FaultEvent> events_;
  double migration_abort_rate_ = 0.0;
  std::uint64_t seed_ = 0;
  int num_hosts_ = 0;
  int num_steps_ = 0;
};

namespace detail {
/// SplitMix64-based uniform in [0, 1) from a (seed, step, ordinal) triple —
/// the abort channel's stateless generator.
double hash_uniform(std::uint64_t seed, std::uint64_t step,
                    std::uint64_t ordinal);
}  // namespace detail

}  // namespace megh
