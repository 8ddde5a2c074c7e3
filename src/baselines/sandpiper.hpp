// Sandpiper-style black-box hotspot mitigation (Wood et al., NSDI'07 — the
// paper's reference [17] for hotspot elimination).
//
// Sandpiper characterizes each host by its *volume*
//     vol = 1/(1 − cpu) · 1/(1 − mem) · [1/(1 − net)]
// (higher = more loaded across resources), detects a hotspot when a host
// stays overloaded for k consecutive observations (sustained, not
// transient), and then migrates the VM with the highest volume-to-size
// ratio (most load moved per byte of RAM copied) to the least-volume host
// that fits, one VM per hotspot per step. It mitigates hotspots only — no energy consolidation — which
// makes it a useful contrast to both the MMT family (consolidation-driven)
// and Megh (cost-driven).
//
// This reproduction uses the two resources the simulator models: CPU
// utilization and RAM occupancy.
#pragma once

#include <vector>

#include "sim/policy.hpp"

namespace megh {

/// Host volume from CPU utilization and RAM occupancy fractions (each
/// clamped below 1 to keep the product finite).
double sandpiper_volume(double cpu_util, double ram_fraction);

class SandpiperPolicy : public MigrationPolicy {
 public:
  /// CPU utilization above which a host counts as hot.
  static constexpr double kHotspotThreshold = 0.7;
  /// Consecutive hot observations required before acting (Sandpiper's
  /// sustained-overload rule; avoids reacting to one-interval spikes).
  static constexpr int kSustainSteps = 2;
  /// Post-placement CPU ceiling for migration targets.
  static constexpr double kPlacementCeiling = 0.7;

  std::string name() const override { return "Sandpiper"; }
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override;
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override;
  void stats(PolicyStats& out) const override;

 private:
  std::vector<int> hot_streak_;  // consecutive hot observations per host
  long long hotspots_resolved_ = 0;
};

}  // namespace megh
