// Placement algorithms: initial allocation of the VM fleet and target-host
// selection for migrations.
//
// The MMT policies use Power-Aware Best-Fit Decreasing (PABFD, Beloglazov &
// Buyya): candidate hosts are those where the VM fits and the post-placement
// utilization stays under a threshold; among them, pick the one whose power
// draw increases least. find_pabfd_target serves Q-learning and the
// custom-policy example; MMT and Megh's candidate generator run their own
// sharded PABFD folds over planned or indexed host state.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/datacenter.hpp"

namespace megh {

enum class InitialPlacement {
  kRoundRobin,  // spread VMs evenly across hosts
  kRandom,      // uniform random host (retrying on RAM misfit)
  kFirstFit,    // pack into the lowest-numbered host that fits
};

/// Place every unplaced VM. Throws Error if some VM cannot fit anywhere.
void place_initial(Datacenter& dc, InitialPlacement mode, Rng& rng);

/// Power increase (watts) on `host` if `vm` were added right now.
double power_increase_watts(const Datacenter& dc, int vm, int host);

/// PABFD target for `vm`: the feasible host (RAM fits, post-placement
/// demanded utilization <= util_ceiling, not in `exclude`) with the smallest
/// power increase. Prefers already-active hosts; wakes a sleeping host only
/// when no active host qualifies. Returns nullopt when nothing fits.
std::optional<int> find_pabfd_target(const Datacenter& dc, int vm,
                                     double util_ceiling,
                                     std::span<const int> exclude = {});

}  // namespace megh
