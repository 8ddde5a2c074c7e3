// Iterative pre-copy live migration (Clark et al., NSDI'05 — the paper's
// reference [4] for the live-migration mechanism itself).
//
// The flat RAM/BW model the paper's cost section uses treats a migration as
// one bulk copy. Real live migration copies iteratively: round 0 transfers
// the whole RAM while the guest keeps dirtying pages; each following round
// transfers the pages dirtied during the previous round; when the dirty set
// is small enough (or rounds are exhausted, or the guest dirties faster
// than the link can copy) the VM is paused for a final stop-and-copy — that
// pause is the *actual* downtime, while the copy rounds only degrade
// service.
//
// Attached to SimulationConfig (MigrationTimeModel::kPreCopy), the engine
// charges the stop-and-copy pause as full downtime and the copy phase as
// degraded service scaled by kMigrationDowntimeFraction; busy VMs (higher
// dirty rates) become genuinely more expensive to move, which the learning
// policies pick up through the cost signal.
#pragma once

namespace megh {

/// The pre-copy setting an experiment varies (`ablation_migration` sweeps
/// it); the rest of the model is the constants below.
struct PreCopyConfig {
  /// Page-dirtying rate of a fully-busy guest (MB/s); the effective rate
  /// scales with the VM's current CPU utilization.
  double dirty_rate_mb_per_s = 40.0;
};

/// Utilization→dirty-rate mapping floor: even an idle guest dirties some
/// pages (kernel housekeeping).
inline constexpr double kIdleDirtyFraction = 0.2;
/// Remaining dirty set (MB) small enough to stop-and-copy.
inline constexpr double kStopCopyThresholdMb = 32.0;
/// Cap on copy rounds; exceeded ⇒ stop-and-copy whatever remains.
inline constexpr int kPreCopyMaxRounds = 30;

static_assert(kIdleDirtyFraction >= 0 && kIdleDirtyFraction <= 1,
              "idle dirty fraction must lie in [0, 1]");
static_assert(kStopCopyThresholdMb > 0, "stop-copy threshold must be > 0");
static_assert(kPreCopyMaxRounds >= 1, "need at least one copy round");

struct MigrationEstimate {
  double copy_s = 0.0;      // pre-copy rounds (service degraded, VM running)
  double downtime_s = 0.0;  // stop-and-copy pause (VM suspended)
  int rounds = 0;           // pre-copy rounds performed
  bool converged = false;   // dirty set shrank below the threshold

  double total_s() const { return copy_s + downtime_s; }
};

/// Simulate the pre-copy rounds analytically. `dirty_rate_mb_per_s` is the
/// *effective* rate for this VM right now (caller scales by utilization).
/// If the guest dirties as fast as the link copies (ratio >= 1) the rounds
/// cannot converge and the model stops-and-copies after the first round.
MigrationEstimate precopy_migration(double ram_mb, double bw_mbps,
                                    double dirty_rate_mb_per_s);

/// Effective dirty rate for a VM at `utilization` (in [0, 1]).
double effective_dirty_rate(double utilization, const PreCopyConfig& config);

}  // namespace megh
