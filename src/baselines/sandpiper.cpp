#include "baselines/sandpiper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace megh {

double sandpiper_volume(double cpu_util, double ram_fraction) {
  const double cpu = std::clamp(cpu_util, 0.0, 0.99);
  const double ram = std::clamp(ram_fraction, 0.0, 0.99);
  return 1.0 / ((1.0 - cpu) * (1.0 - ram));
}

static_assert(SandpiperPolicy::kHotspotThreshold > 0 &&
                  SandpiperPolicy::kHotspotThreshold <= 1,
              "Sandpiper hotspot threshold must lie in (0, 1]");
static_assert(SandpiperPolicy::kSustainSteps >= 1,
              "Sandpiper sustain steps must be >= 1");

void SandpiperPolicy::begin(const Datacenter& dc, const CostConfig&, double) {
  hot_streak_.assign(static_cast<std::size_t>(dc.num_hosts()), 0);
  hotspots_resolved_ = 0;
}

void SandpiperPolicy::decide_into(const StepObservation& obs,
                                  std::vector<MigrationAction>& out) {
  const Datacenter& dc = *obs.dc;
  MEGH_ASSERT(static_cast<int>(hot_streak_.size()) == dc.num_hosts(),
              "SandpiperPolicy::decide before begin()");

  // Sustained-overload detection.
  std::vector<int> hotspots;
  for (int h = 0; h < dc.num_hosts(); ++h) {
    if (obs.host_util[static_cast<std::size_t>(h)] >
        kHotspotThreshold) {
      if (++hot_streak_[static_cast<std::size_t>(h)] >=
          kSustainSteps) {
        hotspots.push_back(h);
      }
    } else {
      hot_streak_[static_cast<std::size_t>(h)] = 0;
    }
  }
  if (hotspots.empty()) return;

  // Hottest first (by volume).
  const auto host_volume = [&](int h, double extra_mips, double extra_ram) {
    const double cpu = (dc.host_demand_mips(h) + extra_mips) /
                       dc.host_spec(h).mips;
    const double ram = (dc.host_ram_used(h) + extra_ram) /
                       dc.host_spec(h).ram_mb;
    return sandpiper_volume(cpu, ram);
  };
  std::sort(hotspots.begin(), hotspots.end(), [&](int a, int b) {
    return host_volume(a, 0, 0) > host_volume(b, 0, 0);
  });

  // Plan-level deltas so simultaneous decisions see each other.
  std::vector<double> extra_mips(static_cast<std::size_t>(dc.num_hosts()), 0);
  std::vector<double> extra_ram(static_cast<std::size_t>(dc.num_hosts()), 0);

  for (int hot : hotspots) {
    // One VM per hotspot per step (re-evaluated next interval): the
    // highest volume-to-size VM on the hotspot.
    int best_vm = -1;
    double best_vsr = -1.0;
    for (int vm : dc.vms_on(hot)) {
      const double cpu = dc.vm_utilization(vm);
      const double vm_volume = 1.0 / (1.0 - std::clamp(cpu, 0.0, 0.99));
      const double vsr = vm_volume / dc.vm_spec(vm).ram_mb;
      if (vsr > best_vsr) {
        best_vsr = vsr;
        best_vm = vm;
      }
    }
    if (best_vm < 0) continue;

    // Least-volume feasible target.
    int target = -1;
    double target_volume = std::numeric_limits<double>::infinity();
    const double vm_mips = dc.vm_demand_mips(best_vm);
    const double vm_ram = dc.vm_spec(best_vm).ram_mb;
    for (int h = 0; h < dc.num_hosts(); ++h) {
      if (h == hot) continue;
      const std::size_t i = static_cast<std::size_t>(h);
      if (dc.host_ram_used(h) + extra_ram[i] + vm_ram >
          dc.host_spec(h).ram_mb + 1e-9) {
        continue;
      }
      const double post_cpu =
          (dc.host_demand_mips(h) + extra_mips[i] + vm_mips) /
          dc.host_spec(h).mips;
      if (post_cpu > kPlacementCeiling + 1e-9) continue;
      const double volume = host_volume(h, extra_mips[i], extra_ram[i]);
      if (volume < target_volume) {
        target_volume = volume;
        target = h;
      }
    }
    if (target < 0) continue;  // hotspot cannot be mitigated this step

    out.push_back(MigrationAction{best_vm, target});
    const std::size_t t = static_cast<std::size_t>(target);
    extra_mips[t] += vm_mips;
    extra_ram[t] += vm_ram;
    ++hotspots_resolved_;
  }
}

void SandpiperPolicy::stats(PolicyStats& out) const {
  static const StatKey kHotspotMoves = StatKey::intern("sandpiper_hotspot_moves");
  out.set(kHotspotMoves, static_cast<double>(hotspots_resolved_));
}

}  // namespace megh
