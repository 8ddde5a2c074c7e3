#include "baselines/madvm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace megh {

static_assert(MadVmPolicy::kUtilBuckets >= 2 &&
                  MadVmPolicy::kHostBuckets >= 2,
              "MadVM needs at least 2 buckets per dimension");
static_assert(MadVmPolicy::kGamma >= 0.0 && MadVmPolicy::kGamma < 1.0,
              "MadVM gamma must lie in [0, 1)");
static_assert(MadVmPolicy::kKeyStates <=
                  MadVmPolicy::kUtilBuckets * MadVmPolicy::kHostBuckets,
              "MadVM key states must fit the state space");
static_assert(MadVmPolicy::kValueSweeps >= 1,
              "MadVM needs >= 1 sweep per step");
static_assert(MadVmPolicy::kFullSweepPeriod >= 1,
              "MadVM needs a positive full-sweep period");

MadVmPolicy::MadVmPolicy(std::uint64_t seed) : rng_(seed) {}

void MadVmPolicy::begin(const Datacenter& dc, const CostConfig& cost,
                        double) {
  beta_ = cost.beta_overload;
  num_hosts_ = dc.num_hosts();
  models_.assign(static_cast<std::size_t>(dc.num_vms()), {});
  const std::size_t uu = static_cast<std::size_t>(kUtilBuckets) *
                         static_cast<std::size_t>(kUtilBuckets);
  const std::size_t ul = static_cast<std::size_t>(kUtilBuckets) *
                         static_cast<std::size_t>(kHostBuckets);
  for (auto& m : models_) {
    m.transition_counts.assign(uu, 0.0);
    m.value.assign(ul, 0.0);
    m.visits.assign(ul, 0.0);
    m.last_u_bucket = -1;
  }
  sweeps_run_ = 0;
  migrations_requested_ = 0;
}

int MadVmPolicy::bucket_of_util(double util, int buckets) const {
  const double clamped = std::clamp(util, 0.0, 1.0);
  return std::min(buckets - 1, static_cast<int>(clamped * buckets));
}

double MadVmPolicy::reward(int u_bucket, int l_bucket) const {
  // Per-VM utility (Han et al. optimize each VM's performance): headroom
  // shrinks as the host fills and collapses past the overload threshold.
  // Every VM therefore prefers lightly-loaded hosts — which is exactly the
  // behaviour the Megh paper measures against: MadVM spreads the fleet
  // across many active hosts and keeps migrating toward headroom.
  const double l = (l_bucket + 0.5) / kHostBuckets;
  const double u = (u_bucket + 0.5) / kUtilBuckets;
  double r = -u * l;  // contention penalty
  if (l > beta_) r -= kOverloadPenalty * (l - beta_);
  return r;
}

void MadVmPolicy::sweep_vm(int vm, bool full) {
  VmModel& m = models_[static_cast<std::size_t>(vm)];
  const int U = kUtilBuckets;
  const int L = kHostBuckets;

  // Transition distribution per u (with add-one smoothing toward staying).
  // Precomputed once per sweep set.
  std::vector<double> p(static_cast<std::size_t>(U) * U, 0.0);
  for (int u = 0; u < U; ++u) {
    double total = 0.0;
    for (int v = 0; v < U; ++v) {
      total += m.transition_counts[static_cast<std::size_t>(u) * U + v];
    }
    for (int v = 0; v < U; ++v) {
      const double c = m.transition_counts[static_cast<std::size_t>(u) * U + v];
      p[static_cast<std::size_t>(u) * U + v] =
          total > 0 ? c / total : (v == u ? 1.0 : 0.0);
    }
  }

  // Key states: most-visited (u, l) pairs.
  std::vector<int> states(static_cast<std::size_t>(U) * L);
  std::iota(states.begin(), states.end(), 0);
  if (!full) {
    std::partial_sort(states.begin(), states.begin() + kKeyStates,
                      states.end(), [&](int a, int b) {
                        return m.visits[static_cast<std::size_t>(a)] >
                               m.visits[static_cast<std::size_t>(b)];
                      });
    states.resize(kKeyStates);
  }

  for (int sweep = 0; sweep < kValueSweeps; ++sweep) {
    // best1/best2 over l for each u (for the max over l' with move cost).
    std::vector<double> best1(static_cast<std::size_t>(U),
                              -std::numeric_limits<double>::infinity());
    std::vector<int> arg1(static_cast<std::size_t>(U), 0);
    std::vector<double> best2(static_cast<std::size_t>(U),
                              -std::numeric_limits<double>::infinity());
    for (int u = 0; u < U; ++u) {
      for (int l = 0; l < L; ++l) {
        const double v = m.value[static_cast<std::size_t>(u) * L + l];
        if (v > best1[static_cast<std::size_t>(u)]) {
          best2[static_cast<std::size_t>(u)] = best1[static_cast<std::size_t>(u)];
          best1[static_cast<std::size_t>(u)] = v;
          arg1[static_cast<std::size_t>(u)] = l;
        } else if (v > best2[static_cast<std::size_t>(u)]) {
          best2[static_cast<std::size_t>(u)] = v;
        }
      }
    }
    for (int s : states) {
      const int u = s / L;
      const int l = s % L;
      double expected = 0.0;
      for (int v = 0; v < U; ++v) {
        const double prob = p[static_cast<std::size_t>(u) * U + v];
        if (prob <= 0.0) continue;
        const double stay = m.value[static_cast<std::size_t>(v) * L + l];
        const double move_best =
            (arg1[static_cast<std::size_t>(v)] == l
                 ? best2[static_cast<std::size_t>(v)]
                 : best1[static_cast<std::size_t>(v)]) -
            kMigrationCost;
        expected += prob * std::max(stay, move_best);
      }
      m.value[static_cast<std::size_t>(u) * L + l] =
          reward(u, l) + kGamma * expected;
    }
    ++sweeps_run_;
  }
}

void MadVmPolicy::decide_into(const StepObservation& obs,
                              std::vector<MigrationAction>& out) {
  const Datacenter& dc = *obs.dc;
  MEGH_ASSERT(static_cast<int>(models_.size()) == dc.num_vms(),
              "MadVmPolicy::decide before begin()");
  const int U = kUtilBuckets;
  const int L = kHostBuckets;

  // 1. Update transition counts and visits; run value iteration per VM.
  const bool full = obs.step % kFullSweepPeriod == 0;
  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    VmModel& m = models_[static_cast<std::size_t>(vm)];
    const int u = bucket_of_util(obs.vm_util[static_cast<std::size_t>(vm)], U);
    const int host = dc.host_of(vm);
    const int l = bucket_of_util(
        std::min(1.0, obs.host_util[static_cast<std::size_t>(host)]), L);
    if (m.last_u_bucket >= 0) {
      m.transition_counts[static_cast<std::size_t>(m.last_u_bucket) * U + u] +=
          1.0;
    }
    m.last_u_bucket = u;
    m.visits[static_cast<std::size_t>(u) * L + l] += 1.0;
    sweep_vm(vm, full);
  }

  // 2. Decisions: each VM greedily maximizes its own expected utility.
  // Hypothetical per-host demand so this step's choices see each other.
  std::vector<double> planned_mips(static_cast<std::size_t>(dc.num_hosts()));
  std::vector<double> planned_ram(static_cast<std::size_t>(dc.num_hosts()));
  for (int h = 0; h < dc.num_hosts(); ++h) {
    planned_mips[static_cast<std::size_t>(h)] = dc.host_demand_mips(h);
    planned_ram[static_cast<std::size_t>(h)] = dc.host_ram_used(h);
  }

  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    const VmModel& m = models_[static_cast<std::size_t>(vm)];
    const int u = bucket_of_util(obs.vm_util[static_cast<std::size_t>(vm)], U);
    const int current = dc.host_of(vm);
    const double vm_mips = dc.vm_demand_mips(vm);
    const double vm_ram = dc.vm_spec(vm).ram_mb;

    const double cur_util =
        planned_mips[static_cast<std::size_t>(current)] /
        dc.host_spec(current).mips;
    const int cur_l = bucket_of_util(std::min(1.0, cur_util), L);
    const double stay_value = m.value[static_cast<std::size_t>(u) * L + cur_l];
    const bool forced = cur_util > beta_;

    // Scan all hosts for the value-maximizing placement — this O(N·M) scan
    // every step is the scalability burden the paper attributes to MadVM.
    int best_host = -1;
    double best_value = -std::numeric_limits<double>::infinity();
    for (int h = 0; h < dc.num_hosts(); ++h) {
      if (h == current) continue;
      if (planned_ram[static_cast<std::size_t>(h)] + vm_ram >
          dc.host_spec(h).ram_mb + 1e-9) {
        continue;
      }
      const double post =
          (planned_mips[static_cast<std::size_t>(h)] + vm_mips) /
          dc.host_spec(h).mips;
      if (post > 1.0) continue;
      const int l = bucket_of_util(post, L);
      const double v =
          m.value[static_cast<std::size_t>(u) * L + l] - kMigrationCost;
      if (v > best_value) {
        best_value = v;
        best_host = h;
      }
    }
    if (best_host < 0) continue;

    bool move = forced ? best_value > -std::numeric_limits<double>::infinity()
                       : best_value > stay_value + kImprovementMargin;
    // Noisy value estimates: occasionally act on a spurious improvement —
    // the "better" host is then essentially arbitrary among feasible ones.
    if (!move && rng_.bernoulli(kDecisionNoise)) {
      std::vector<int> feasible;
      for (int h = 0; h < dc.num_hosts(); ++h) {
        if (h == current) continue;
        if (planned_ram[static_cast<std::size_t>(h)] + vm_ram >
            dc.host_spec(h).ram_mb + 1e-9) {
          continue;
        }
        const double post =
            (planned_mips[static_cast<std::size_t>(h)] + vm_mips) /
            dc.host_spec(h).mips;
        if (post <= 1.0) feasible.push_back(h);
      }
      if (!feasible.empty()) {
        best_host = feasible[rng_.index(feasible.size())];
        move = true;
      }
    }
    if (!move) continue;

    out.push_back(MigrationAction{vm, best_host});
    ++migrations_requested_;
    planned_mips[static_cast<std::size_t>(current)] -= vm_mips;
    planned_ram[static_cast<std::size_t>(current)] -= vm_ram;
    planned_mips[static_cast<std::size_t>(best_host)] += vm_mips;
    planned_ram[static_cast<std::size_t>(best_host)] += vm_ram;
  }
}

void MadVmPolicy::stats(PolicyStats& out) const {
  static const StatKey kSweeps = StatKey::intern("madvm_sweeps");
  static const StatKey kRequested =
      StatKey::intern("madvm_migrations_requested");
  out.set(kSweeps, static_cast<double>(sweeps_run_));
  out.set(kRequested, static_cast<double>(migrations_requested_));
}

double MadVmPolicy::value(int vm, int u_bucket, int l_bucket) const {
  MEGH_REQUIRE(vm >= 0 && vm < static_cast<int>(models_.size()),
               "MadVM value: vm out of range");
  MEGH_REQUIRE(u_bucket >= 0 && u_bucket < kUtilBuckets &&
                   l_bucket >= 0 && l_bucket < kHostBuckets,
               "MadVM value: bucket out of range");
  return models_[static_cast<std::size_t>(vm)]
      .value[static_cast<std::size_t>(u_bucket) * kHostBuckets +
             l_bucket];
}

}  // namespace megh
