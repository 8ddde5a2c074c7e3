// Operation-cost model: energy consumption plus SLA violation penalties
// (Sec. 3.2–3.3, experimental constants from Sec. 6.1).
#pragma once

#include "common/error.hpp"

namespace megh {

/// How overload downtime accrues to the VMs on an overloaded host.
enum class OverloadDowntimeMode {
  /// Paper's literal reading: host utilization > β charges the full interval
  /// τ as downtime to every resident VM.
  kBinary,
  /// Graded variant (default): charge τ·(util − β)/(1 − β), clipped to
  /// [0, τ]. Equals the binary rule at saturation, discriminates between a
  /// host at 71% and one at 100%, and keeps SLA tiers from saturating for
  /// every algorithm within hours. Both modes are tested; benches use this.
  kExcess,
};

/// How the downtime percentage that selects a VM's SLA tier is computed.
enum class SlaAccounting {
  /// Trailing-window downtime share (default). While a VM's recent
  /// downtime puts it in a tier, the provider pays back that tier's
  /// fraction of the revenue earned over each violating interval. Keeps
  /// the per-step cost stationary (a VM recovers once its service is good
  /// again), which matches the flat converged cost curves of Figs 2–5.
  kWindowed,
  /// Paper-literal Sec. 3.3: downtime percentage accumulated since t = 0;
  /// tiers are absorbing and the payback level is the tier fraction of all
  /// money paid so far.
  kCumulative,
};

/// Electricity price (Sec. 6.1).
inline constexpr double kEnergyPriceUsdPerKwh = 0.18675;
static_assert(kEnergyPriceUsdPerKwh >= 0, "energy price must be >= 0");

/// The cost-model settings an experiment varies. The prices, SLA tiers,
/// migration-downtime fraction and SLA window are the paper's constants
/// (Sec. 3.3, 6.1): kEnergyPriceUsdPerKwh above and the SLA constants in
/// sim/sla.hpp.
struct CostConfig {
  double beta_overload = 0.70;   // PM overload threshold (Sec. 6.1)

  OverloadDowntimeMode overload_mode = OverloadDowntimeMode::kExcess;

  SlaAccounting sla_accounting = SlaAccounting::kWindowed;

  void validate() const {
    MEGH_REQUIRE(beta_overload > 0 && beta_overload <= 1,
                 "beta must lie in (0, 1]");
  }
};

/// Energy cost (USD) of drawing `watts` for `seconds`.
inline double energy_cost_usd(double watts, double seconds) {
  return watts * seconds / 3.6e6 * kEnergyPriceUsdPerKwh;
}

class Datacenter;

/// Instantaneous power draw of the whole data center (active hosts at their
/// interpolated SPECpower level, idle hosts asleep), in watts.
double datacenter_power_watts(const Datacenter& dc);

/// ΔC_p for one interval (Eq. 2 discretization).
double interval_energy_cost_usd(const Datacenter& dc, double interval_s);

}  // namespace megh
