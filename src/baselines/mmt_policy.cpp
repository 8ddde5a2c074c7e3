#include "baselines/mmt_policy.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sim/placement.hpp"

namespace megh {

namespace {

/// Tracks hypothetical post-migration load while a step's migration plan is
/// being built, so successive placements see each other.
class Planner {
 public:
  explicit Planner(const Datacenter& dc)
      : dc_(dc),
        extra_mips_(static_cast<std::size_t>(dc.num_hosts()), 0.0),
        extra_ram_(static_cast<std::size_t>(dc.num_hosts()), 0.0),
        extra_vms_(static_cast<std::size_t>(dc.num_hosts()), 0) {}

  void plan_move(int vm, int from, int to) {
    const double mips = dc_.vm_demand_mips(vm);
    const double ram = dc_.vm_spec(vm).ram_mb;
    extra_mips_[static_cast<std::size_t>(from)] -= mips;
    extra_ram_[static_cast<std::size_t>(from)] -= ram;
    extra_vms_[static_cast<std::size_t>(from)] -= 1;
    extra_mips_[static_cast<std::size_t>(to)] += mips;
    extra_ram_[static_cast<std::size_t>(to)] += ram;
    extra_vms_[static_cast<std::size_t>(to)] += 1;
  }

  double demand_mips(int host) const {
    return dc_.host_demand_mips(host) +
           extra_mips_[static_cast<std::size_t>(host)];
  }

  double utilization(int host) const {
    return demand_mips(host) / dc_.host_spec(host).mips;
  }

  bool ram_fits(int vm, int host) const {
    return dc_.host_ram_used(host) + extra_ram_[static_cast<std::size_t>(host)] +
               dc_.vm_spec(vm).ram_mb <=
           dc_.host_spec(host).ram_mb + 1e-9;
  }

  bool active(int host) const {
    return static_cast<int>(dc_.vms_on(host).size()) +
               extra_vms_[static_cast<std::size_t>(host)] >
           0;
  }

  /// One candidate for the PABFD fold: (host, power increase, was-active).
  struct PabfdPartial {
    int host = -1;
    double increase = std::numeric_limits<double>::infinity();
    bool active = false;
  };

  /// The PABFD preference: prefer an active target over waking a sleeping
  /// one, then the smaller power increase, the earlier host winning ties
  /// (strict `<`, first wins). A left fold with this predicate picks the
  /// globally first-minimal candidate, so folding per-shard winners in
  /// shard (= ascending-host-block) order reproduces the serial scan
  /// bit-for-bit — which is what lets pabfd() shard without changing any
  /// plan.
  static bool pabfd_better(const PabfdPartial& best, bool is_active,
                           double increase) {
    return best.host < 0 || (is_active && !best.active) ||
           (is_active == best.active && increase < best.increase);
  }

  /// PABFD over the planned state, optionally sharded over `exec`.
  std::optional<int> pabfd(int vm, double ceiling,
                           const std::vector<char>& excluded,
                           const ShardExecutor* exec = nullptr) const {
    const int current = dc_.host_of(vm);
    const double vm_mips = dc_.vm_demand_mips(vm);
    const auto scan = [&](int begin, int end) {
      PabfdPartial best;
      for (int h = begin; h < end; ++h) {
        if (h == current || excluded[static_cast<std::size_t>(h)]) continue;
        if (!ram_fits(vm, h)) continue;
        const double capacity = dc_.host_spec(h).mips;
        if (demand_mips(h) + vm_mips > ceiling * capacity + 1e-9) continue;
        const bool is_active = active(h);
        // Skip the power evaluation when the host cannot win; the skipped
        // work has no side effects, so this never changes the fold.
        if (best.host >= 0 && best.active && !is_active) continue;
        const PowerModel& power = dc_.host_spec(h).power;
        const double before =
            is_active ? power.watts(std::min(1.0, demand_mips(h) / capacity))
                      : power.sleep_watts();
        const double after =
            power.watts(std::min(1.0, (demand_mips(h) + vm_mips) / capacity));
        const double increase = after - before;
        if (pabfd_better(best, is_active, increase)) {
          best = PabfdPartial{h, increase, is_active};
        }
      }
      return best;
    };
    PabfdPartial best;
    if (exec != nullptr && exec->parallel() &&
        exec->plan().count() == dc_.num_hosts()) {
      const ShardPlan& plan = exec->plan();
      std::vector<PabfdPartial> partials(
          static_cast<std::size_t>(plan.num_shards()));
      exec->for_shards([&](int s) {
        partials[static_cast<std::size_t>(s)] =
            scan(plan.shard_begin(s), plan.shard_end(s));
      });
      for (const PabfdPartial& p : partials) {
        if (p.host < 0) continue;
        if (pabfd_better(best, p.active, p.increase)) best = p;
      }
    } else {
      best = scan(0, dc_.num_hosts());
    }
    if (best.host < 0) return std::nullopt;
    return best.host;
  }

 private:
  const Datacenter& dc_;

 public:
  /// Adopt another planner's deltas (same datacenter). Used to commit a
  /// trial evacuation plan.
  void adopt(const Planner& other) {
    MEGH_ASSERT(&dc_ == &other.dc_, "Planner::adopt across datacenters");
    extra_mips_ = other.extra_mips_;
    extra_ram_ = other.extra_ram_;
    extra_vms_ = other.extra_vms_;
  }

 private:
  std::vector<double> extra_mips_;
  std::vector<double> extra_ram_;
  std::vector<int> extra_vms_;
};

}  // namespace

MmtPolicy::MmtPolicy(const MmtConfig& config)
    : config_(config),
      detector_(make_detector(config.detector, config.thr_threshold)),
      rng_(config.seed) {}

static_assert(MmtPolicy::kHistoryWindow >= kRegressionPoints,
              "the adaptive detectors need kRegressionPoints samples");
static_assert(MmtPolicy::kPlacementCeiling > 0 &&
                  MmtPolicy::kPlacementCeiling <= 1,
              "MMT placement ceiling must lie in (0, 1]");
static_assert(MmtPolicy::kUnderloadThreshold >= 0 &&
                  MmtPolicy::kUnderloadThreshold <= 1,
              "MMT underload threshold must lie in [0, 1]");

std::string MmtPolicy::name() const {
  return detector_name(config_.detector) + "-" +
         vm_selection_name(config_.selection);
}

void MmtPolicy::begin(const Datacenter& dc, const CostConfig&, double) {
  history_.assign(static_cast<std::size_t>(dc.num_hosts()), {});
  overload_migrations_ = 0;
  underload_migrations_ = 0;
}

void MmtPolicy::decide_into(const StepObservation& obs,
                            std::vector<MigrationAction>& out) {
  const Datacenter& dc = *obs.dc;
  const ShardExecutor* exec = obs.exec;
  MEGH_ASSERT(static_cast<int>(history_.size()) == dc.num_hosts(),
              "MmtPolicy::decide before begin()");

  // Record history (current utilization last).
  const std::size_t window = static_cast<std::size_t>(kHistoryWindow);
  for (int h = 0; h < dc.num_hosts(); ++h) {
    auto& hist = history_[static_cast<std::size_t>(h)];
    hist.push_back(obs.host_util[static_cast<std::size_t>(h)]);
    while (hist.size() > window) hist.pop_front();
  }

  Planner planner(dc);
  std::vector<char> excluded(static_cast<std::size_t>(dc.num_hosts()), 0);

  // --- Overload phase ---
  std::vector<int> overloaded_hosts;
  for (int h = 0; h < dc.num_hosts(); ++h) {
    if (!dc.is_active(h)) continue;
    const std::vector<double> hist(history_[static_cast<std::size_t>(h)].begin(),
                                   history_[static_cast<std::size_t>(h)].end());
    if (detector_->overloaded(hist)) {
      overloaded_hosts.push_back(h);
      excluded[static_cast<std::size_t>(h)] = 1;  // never a migration target
    }
  }

  std::vector<int> to_place;  // (vm) pairs needing a target
  for (int h : overloaded_hosts) {
    const std::vector<double> hist(history_[static_cast<std::size_t>(h)].begin(),
                                   history_[static_cast<std::size_t>(h)].end());
    const double target_util = detector_->threshold(hist);
    const std::vector<int> selected =
        select_vms_until_under(config_.selection, dc, h, target_util, rng_);
    to_place.insert(to_place.end(), selected.begin(), selected.end());
  }
  // Best-Fit *Decreasing*: place the biggest demands first.
  std::sort(to_place.begin(), to_place.end(), [&](int a, int b) {
    return dc.vm_demand_mips(a) > dc.vm_demand_mips(b);
  });
  for (int vm : to_place) {
    const auto target =
        planner.pabfd(vm, kPlacementCeiling, excluded, exec);
    if (!target.has_value()) continue;  // nowhere to go; stay put
    planner.plan_move(vm, dc.host_of(vm), *target);
    out.push_back(MigrationAction{vm, *target});
    ++overload_migrations_;
  }

  // --- Underload phase ---
  std::vector<int> underload_candidates;
  for (int h = 0; h < dc.num_hosts(); ++h) {
    if (!dc.is_active(h) || excluded[static_cast<std::size_t>(h)]) continue;
    if (planner.utilization(h) < kUnderloadThreshold &&
        planner.active(h)) {
      underload_candidates.push_back(h);
    }
  }
  std::sort(underload_candidates.begin(), underload_candidates.end(),
            [&](int a, int b) {
              return planner.utilization(a) < planner.utilization(b);
            });

  const int evacuation_cap = std::max(
      1, static_cast<int>(kUnderloadEvacuationFraction * dc.num_hosts()));
  int evacuated = 0;
  for (int h : underload_candidates) {
    if (evacuated >= evacuation_cap) break;
    // Try to place every VM of h elsewhere; commit only if all fit.
    std::vector<int> vms(dc.vms_on(h).begin(), dc.vms_on(h).end());
    // Skip VMs already planned to move away in the overload phase.
    std::erase_if(vms, [&](int vm) {
      return std::any_of(out.begin(), out.end(),
                         [vm](const MigrationAction& a) { return a.vm == vm; });
    });
    if (vms.empty()) continue;
    std::sort(vms.begin(), vms.end(), [&](int a, int b) {
      return dc.vm_demand_mips(a) > dc.vm_demand_mips(b);
    });
    std::vector<char> excluded_for_evac = excluded;
    excluded_for_evac[static_cast<std::size_t>(h)] = 1;
    std::vector<MigrationAction> trial;
    Planner trial_planner = planner;
    bool all_placed = true;
    for (int vm : vms) {
      const auto target = trial_planner.pabfd(
          vm, kPlacementCeiling, excluded_for_evac, exec);
      if (!target.has_value()) {
        all_placed = false;
        break;
      }
      trial_planner.plan_move(vm, h, *target);
      trial.push_back(MigrationAction{vm, *target});
    }
    if (!all_placed) continue;
    planner.adopt(trial_planner);
    excluded[static_cast<std::size_t>(h)] = 1;  // now sleeping; not a target
    out.insert(out.end(), trial.begin(), trial.end());
    underload_migrations_ += static_cast<long long>(trial.size());
    ++evacuated;
  }
}

void MmtPolicy::stats(PolicyStats& out) const {
  static const StatKey kOverload = StatKey::intern("overload_migrations");
  static const StatKey kUnderload = StatKey::intern("underload_migrations");
  out.set(kOverload, static_cast<double>(overload_migrations_));
  out.set(kUnderload, static_cast<double>(underload_migrations_));
}

std::unique_ptr<MmtPolicy> make_thr_mmt(double threshold, std::uint64_t seed) {
  MmtConfig config;
  config.detector = DetectorKind::kThr;
  config.thr_threshold = threshold;
  config.seed = seed;
  return std::make_unique<MmtPolicy>(config);
}

namespace {
std::unique_ptr<MmtPolicy> make_variant(DetectorKind kind, std::uint64_t seed) {
  MmtConfig config;
  config.detector = kind;
  config.seed = seed;
  return std::make_unique<MmtPolicy>(config);
}
}  // namespace

std::unique_ptr<MmtPolicy> make_iqr_mmt(std::uint64_t seed) {
  return make_variant(DetectorKind::kIqr, seed);
}
std::unique_ptr<MmtPolicy> make_mad_mmt(std::uint64_t seed) {
  return make_variant(DetectorKind::kMad, seed);
}
std::unique_ptr<MmtPolicy> make_lr_mmt(std::uint64_t seed) {
  return make_variant(DetectorKind::kLr, seed);
}
std::unique_ptr<MmtPolicy> make_lrr_mmt(std::uint64_t seed) {
  return make_variant(DetectorKind::kLrr, seed);
}

}  // namespace megh
