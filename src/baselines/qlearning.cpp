#include "baselines/qlearning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/vm_selection.hpp"
#include "common/error.hpp"
#include "sim/placement.hpp"

namespace megh {

static_assert(QLearningPolicy::kAlpha > 0 && QLearningPolicy::kAlpha <= 1,
              "Q-learning alpha must lie in (0, 1]");
static_assert(QLearningPolicy::kGamma >= 0 && QLearningPolicy::kGamma < 1,
              "Q-learning gamma must lie in [0, 1)");

QLearningPolicy::QLearningPolicy(std::uint64_t seed) : rng_(seed) {}

int QLearningPolicy::num_states() const {
  return kOverloadBuckets * kUtilBuckets * kActiveBuckets;
}

double QLearningPolicy::q(int state, int action) const {
  MEGH_REQUIRE(state >= 0 && state < num_states() && action >= 0 &&
                   action < kNumActions,
               "q lookup out of range");
  return q_[static_cast<std::size_t>(state) * kNumActions +
            static_cast<std::size_t>(action)];
}

void QLearningPolicy::begin(const Datacenter&, const CostConfig& cost,
                            double) {
  beta_ = cost.beta_overload;
  if (q_.empty()) {  // keep the table across train → deploy runs
    q_.assign(static_cast<std::size_t>(num_states()) * kNumActions, 0.0);
  }
  last_state_ = -1;
  last_action_ = -1;
}

namespace {
int bucketize(double x, int buckets) {
  const double clamped = std::clamp(x, 0.0, 1.0);
  return std::min(buckets - 1, static_cast<int>(clamped * buckets));
}
}  // namespace

int QLearningPolicy::encode_state(const StepObservation& obs) const {
  const Datacenter& dc = *obs.dc;
  int overloaded = 0;
  int active = 0;
  double util_sum = 0.0;
  for (int h = 0; h < dc.num_hosts(); ++h) {
    if (!dc.is_active(h)) continue;
    ++active;
    const double u = obs.host_util[static_cast<std::size_t>(h)];
    util_sum += std::min(1.0, u);
    if (u > beta_) ++overloaded;
  }
  const double overload_frac =
      active > 0 ? static_cast<double>(overloaded) / active : 0.0;
  const double mean_util = active > 0 ? util_sum / active : 0.0;
  const double active_frac =
      static_cast<double>(active) / std::max(1, dc.num_hosts());
  const int a = bucketize(overload_frac, kOverloadBuckets);
  const int b = bucketize(mean_util, kUtilBuckets);
  const int c = bucketize(active_frac, kActiveBuckets);
  return (a * kUtilBuckets + b) * kActiveBuckets + c;
}

void QLearningPolicy::macro_action(int action, const StepObservation& obs,
                                   std::vector<MigrationAction>& out) {
  const Datacenter& dc = *obs.dc;
  const bool evacuate_overloaded = action == 1 || action == 3;
  const bool consolidate = action == 2 || action == 3;

  if (evacuate_overloaded) {
    // Most overloaded host; move its MMT pick to a PABFD target.
    int worst = -1;
    double worst_util = beta_;
    for (int h = 0; h < dc.num_hosts(); ++h) {
      if (!dc.is_active(h)) continue;
      const double u = obs.host_util[static_cast<std::size_t>(h)];
      if (u > worst_util) {
        worst_util = u;
        worst = h;
      }
    }
    if (worst >= 0 && !dc.vms_on(worst).empty()) {
      const int vm = select_vm(VmSelectionKind::kMinMigrationTime, dc,
                               dc.vms_on(worst), rng_);
      if (const auto target =
              find_pabfd_target(dc, vm, kPlacementCeiling)) {
        out.push_back(MigrationAction{vm, *target});
      }
    }
  }

  if (consolidate) {
    // Least utilized active host; move one VM off it toward packing.
    int least = -1;
    double least_util = std::numeric_limits<double>::infinity();
    for (int h = 0; h < dc.num_hosts(); ++h) {
      if (!dc.is_active(h)) continue;
      const double u = obs.host_util[static_cast<std::size_t>(h)];
      if (u < least_util) {
        least_util = u;
        least = h;
      }
    }
    if (least >= 0 && !dc.vms_on(least).empty()) {
      const int vm = select_vm(VmSelectionKind::kMinMigrationTime, dc,
                               dc.vms_on(least), rng_);
      if (const auto target =
              find_pabfd_target(dc, vm, kPlacementCeiling)) {
        if (*target != least) out.push_back(MigrationAction{vm, *target});
      }
    }
  }
}

void QLearningPolicy::decide_into(const StepObservation& obs,
                                  std::vector<MigrationAction>& out) {
  const int state = encode_state(obs);
  const double epsilon = training_ ? kEpsilonTrain : kEpsilonRun;

  int action;
  if (rng_.bernoulli(epsilon)) {
    action = static_cast<int>(rng_.index(kNumActions));
  } else {
    action = 0;
    double best = q(state, 0);
    for (int a = 1; a < kNumActions; ++a) {
      if (q(state, a) > best) {
        best = q(state, a);
        action = a;
      }
    }
  }
  last_state_ = state;
  last_action_ = action;
  macro_action(action, obs, out);
}

void QLearningPolicy::observe_cost(double step_cost) {
  if (last_state_ < 0) return;
  // Reward = −cost. Next-state max is approximated with the value of the
  // same state (the classic online TD(0) shortcut when the next state is
  // only seen on the following decide()). The update still contracts.
  const double reward = -step_cost;
  double best_next = -std::numeric_limits<double>::infinity();
  for (int a = 0; a < kNumActions; ++a) {
    best_next = std::max(best_next, q(last_state_, a));
  }
  double& cell = q_[static_cast<std::size_t>(last_state_) * kNumActions +
                    static_cast<std::size_t>(last_action_)];
  cell += kAlpha * (reward + kGamma * best_next - cell);
  ++updates_;
}

void QLearningPolicy::stats(PolicyStats& out) const {
  static const StatKey kUpdates = StatKey::intern("qlearning_updates");
  out.set(kUpdates, static_cast<double>(updates_));
}

}  // namespace megh
