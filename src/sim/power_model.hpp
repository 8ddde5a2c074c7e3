// Host power models from the SPECpower_ssj2008 benchmark.
//
// The paper (Sec. 3.2, Table 1) sidesteps modelling P(θ) analytically and
// instead uses the measured SPECpower curves of the two server types in the
// PlanetLab setup: HP ProLiant ML110 G4 and G5, giving watts at 0%, 10%, …,
// 100% CPU load. Intermediate utilizations are linearly interpolated
// (CloudSim's PowerModelSpecPower does the same). A host with no VMs is
// asleep and draws `sleep_watts` (0 by default).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>

namespace megh {

class PowerModel {
 public:
  /// `watts_at_load[i]` is consumption at i*10% utilization.
  PowerModel(std::string name, const std::array<double, 11>& watts_at_load,
             double sleep_watts = 0.0);

  /// Power draw (watts) at `utilization` in [0, 1]; values outside are
  /// clamped. Linear interpolation between the table's 10% knots. Inline:
  /// the candidate scans call it once per (source, host) pair.
  double watts(double utilization) const {
    const double u = std::clamp(utilization, 0.0, 1.0);
    const double pos = u * 10.0;
    // pos >= 0, so truncation is floor (and needs no libm call).
    const int lo = static_cast<int>(pos);
    if (lo >= 10) return table_[10];
    const double frac = pos - lo;
    return table_[static_cast<std::size_t>(lo)] * (1.0 - frac) +
           table_[static_cast<std::size_t>(lo) + 1] * frac;
  }

  /// Power draw when the host is asleep (no VMs).
  double sleep_watts() const { return sleep_watts_; }

  double idle_watts() const { return table_[0]; }
  double max_watts() const { return table_[10]; }
  const std::string& name() const { return name_; }

  /// The raw SPECpower knots — read by the serving protocol so a remote
  /// policy daemon can mirror the fleet's power curves bit-exactly.
  const std::array<double, 11>& table() const { return table_; }

 private:
  std::string name_;
  std::array<double, 11> table_;
  double sleep_watts_;
};

/// Table 1, row 1: HP ProLiant ML110 G4 (86 W idle, 117 W full load).
PowerModel hp_proliant_g4_power();

/// Table 1, row 2: HP ProLiant ML110 G5 (93.7 W idle, 135 W full load).
PowerModel hp_proliant_g5_power();

}  // namespace megh
