// SLA violation accounting (Sec. 3.3).
//
// Per VM the accountant tracks requested time T_r, downtime from host
// overloading (Eq. 4) and downtime from live migrations (Eq. 5). A VM's
// downtime percentage selects its payback tier: (0.05%, 0.10%] ⇒ 16.7%,
// > 0.10% ⇒ 33.3% of the user's money (Sec. 3.3/6.1).
//
// Two accounting modes (CostConfig::sla_accounting):
//  * kWindowed (default) — the percentage is computed over a trailing
//    window; each interval a VM spends in a tier costs
//    tier_fraction × vm_price × interval. Stationary and recoverable.
//  * kCumulative — paper-literal: the percentage accumulates since t = 0
//    and the cost level is tier_fraction × (all money paid so far); the
//    per-interval cost is the non-negative level increase (ΔC_v ≥ 0).
#pragma once

#include <vector>

#include "sim/cost_model.hpp"

namespace megh {

// SLA constants (Sec. 3.3 and 6.1).
/// What a VM's user pays per hour of requested service.
inline constexpr double kVmPriceUsdPerHour = 1.2;
/// Payback fractions for downtime in (kTier1DowntimePct%, kTier2DowntimePct%]
/// and above kTier2DowntimePct%.
inline constexpr double kTier1Fraction = 0.167;
inline constexpr double kTier2Fraction = 0.333;
inline constexpr double kTier1DowntimePct = 0.05;
inline constexpr double kTier2DowntimePct = 0.10;
/// Share of a live migration's copy time charged as downtime to the
/// migrated VM. CloudSim models live migration as a ~10% performance
/// degradation over the copy phase; with the paper's α = 30% CPU threshold
/// the violated portion is a small slice of TM, and 0.02 reproduces the
/// paper's modest SLA share (docs/COST_MODEL.md).
inline constexpr double kMigrationDowntimeFraction = 0.02;
/// Trailing window, in steps, of SlaAccounting::kWindowed
/// (12 × 300 s = 1 hour).
inline constexpr int kSlaWindowSteps = 12;

static_assert(kVmPriceUsdPerHour >= 0, "vm price must be >= 0");
static_assert(kTier1Fraction >= 0 && kTier2Fraction >= kTier1Fraction,
              "SLA tier fractions must be ordered");
static_assert(kTier1DowntimePct >= 0 && kTier2DowntimePct > kTier1DowntimePct,
              "SLA tier thresholds must be ordered");
static_assert(kMigrationDowntimeFraction >= 0 &&
                  kMigrationDowntimeFraction <= 1,
              "migration downtime fraction must lie in [0, 1]");
static_assert(kSlaWindowSteps >= 1, "SLA window must be >= 1 step");

class SlaAccountant {
 public:
  SlaAccountant(int num_vms, const CostConfig& config);

  /// Open a new interval: every VM requests `interval_s` more service time
  /// and the trailing window advances one slot.
  void begin_interval(double interval_s);

  /// Charge overload downtime to a VM (seconds within the open interval).
  void add_overload_downtime(int vm, double seconds);

  /// Charge live-migration downtime to a VM (scaled by
  /// kMigrationDowntimeFraction).
  void add_migration_downtime(int vm, double seconds);

  /// Downtime seconds appropriate for a host at `utilization` under the
  /// configured OverloadDowntimeMode (0 when utilization <= beta).
  double overload_downtime_s(double utilization, double interval_s) const;

  /// Close the interval and return ΔC_v.
  double settle_interval();

  // --- inspection ---
  double requested_s(int vm) const;        // cumulative since t=0
  double downtime_s(int vm) const;         // cumulative since t=0
  /// Cumulative downtime attributable to live migrations only (after the
  /// kMigrationDowntimeFraction scaling) — the numerator of Beloglazov's
  /// PDM metric.
  double migration_downtime_s(int vm) const;
  double cumulative_downtime_pct(int vm) const;
  double windowed_downtime_pct(int vm) const;
  /// Tier under the *configured* accounting mode: 0 (none), 1, or 2.
  int tier(int vm) const;
  int num_vms_in_tier(int t) const;
  double total_sla_cost() const { return total_cost_; }

 private:
  int tier_of_pct(double pct) const;
  double cumulative_level(int vm) const;
  void check_vm(int vm) const;

  CostConfig config_;
  int num_vms_;
  double interval_s_ = 0.0;
  long long intervals_seen_ = 0;

  std::vector<double> requested_s_;
  std::vector<double> downtime_s_;
  std::vector<double> migration_downtime_s_;
  std::vector<double> last_level_;  // kCumulative bookkeeping

  // Trailing window: per-VM ring buffer of per-interval downtime seconds.
  std::vector<float> window_;       // [vm * kSlaWindowSteps + slot]
  std::vector<double> window_sum_;
  int window_slot_ = -1;
  double total_cost_ = 0.0;
};

}  // namespace megh
