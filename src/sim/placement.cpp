#include "sim/placement.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace megh {

namespace {

bool excluded(std::span<const int> exclude, int host) {
  return std::find(exclude.begin(), exclude.end(), host) != exclude.end();
}

bool feasible(const Datacenter& dc, int vm, int host, double util_ceiling) {
  if (!dc.fits(vm, host)) return false;
  const double post_demand =
      dc.host_demand_mips(host) + dc.vm_demand_mips(vm);
  return post_demand <= util_ceiling * dc.host_spec(host).mips + 1e-9;
}

}  // namespace

void place_initial(Datacenter& dc, InitialPlacement mode, Rng& rng) {
  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    if (dc.host_of(vm) != kUnplaced) continue;
    int target = kUnplaced;
    switch (mode) {
      case InitialPlacement::kRoundRobin: {
        // Start from a rotating offset; take the first host that fits.
        for (int i = 0; i < dc.num_hosts(); ++i) {
          const int h = (vm + i) % dc.num_hosts();
          if (dc.fits(vm, h)) {
            target = h;
            break;
          }
        }
        break;
      }
      case InitialPlacement::kRandom: {
        // Try random hosts, then fall back to a scan for a deterministic
        // failure condition.
        for (int attempt = 0; attempt < 4 * dc.num_hosts(); ++attempt) {
          const int h = static_cast<int>(rng.index(
              static_cast<std::size_t>(dc.num_hosts())));
          if (dc.fits(vm, h)) {
            target = h;
            break;
          }
        }
        if (target == kUnplaced) {
          for (int h = 0; h < dc.num_hosts(); ++h) {
            if (dc.fits(vm, h)) {
              target = h;
              break;
            }
          }
        }
        break;
      }
      case InitialPlacement::kFirstFit: {
        for (int h = 0; h < dc.num_hosts(); ++h) {
          if (dc.fits(vm, h)) {
            target = h;
            break;
          }
        }
        break;
      }
    }
    MEGH_REQUIRE(target != kUnplaced,
                 strf("initial placement: vm %d fits on no host", vm));
    dc.place(vm, target);
  }
}

double power_increase_watts(const Datacenter& dc, int vm, int host) {
  const PowerModel& power = dc.host_spec(host).power;
  const double capacity = dc.host_spec(host).mips;
  const double before_util = std::min(1.0, dc.host_demand_mips(host) / capacity);
  const double after_util = std::min(
      1.0, (dc.host_demand_mips(host) + dc.vm_demand_mips(vm)) / capacity);
  const double before =
      dc.is_active(host) ? power.watts(before_util) : power.sleep_watts();
  const double after = power.watts(after_util);
  return after - before;
}

std::optional<int> find_pabfd_target(const Datacenter& dc, int vm,
                                     double util_ceiling,
                                     std::span<const int> exclude) {
  std::optional<int> best;
  double best_increase = std::numeric_limits<double>::infinity();
  bool best_active = false;
  const int current = dc.host_of(vm);
  for (int h = 0; h < dc.num_hosts(); ++h) {
    if (h == current || excluded(exclude, h)) continue;
    if (!feasible(dc, vm, h, util_ceiling)) continue;
    const bool active = dc.is_active(h);
    // Active hosts strictly preferred over waking sleepers.
    if (best.has_value() && best_active && !active) continue;
    const double increase = power_increase_watts(dc, vm, h);
    const bool better = !best.has_value() || (active && !best_active) ||
                        (active == best_active && increase < best_increase);
    if (better) {
      best = h;
      best_increase = increase;
      best_active = active;
    }
  }
  return best;
}

}  // namespace megh
