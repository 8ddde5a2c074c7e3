#include "sim/sla.hpp"

#include <algorithm>

namespace megh {

SlaAccountant::SlaAccountant(int num_vms, const CostConfig& config)
    : config_(config), num_vms_(num_vms) {
  MEGH_REQUIRE(num_vms >= 0, "SlaAccountant: num_vms must be >= 0");
  config_.validate();
  requested_s_.assign(static_cast<std::size_t>(num_vms), 0.0);
  downtime_s_.assign(static_cast<std::size_t>(num_vms), 0.0);
  migration_downtime_s_.assign(static_cast<std::size_t>(num_vms), 0.0);
  last_level_.assign(static_cast<std::size_t>(num_vms), 0.0);
  window_.assign(static_cast<std::size_t>(num_vms) *
                     static_cast<std::size_t>(kSlaWindowSteps),
                 0.0f);
  window_sum_.assign(static_cast<std::size_t>(num_vms), 0.0);
}

void SlaAccountant::check_vm(int vm) const {
  MEGH_ASSERT(vm >= 0 && vm < num_vms_, "SlaAccountant vm index out of range");
}

void SlaAccountant::begin_interval(double interval_s) {
  MEGH_ASSERT(interval_s > 0.0, "interval must be positive");
  interval_s_ = interval_s;
  ++intervals_seen_;
  window_slot_ = static_cast<int>((intervals_seen_ - 1) % kSlaWindowSteps);
  for (int vm = 0; vm < num_vms_; ++vm) {
    requested_s_[static_cast<std::size_t>(vm)] += interval_s;
    // Retire the slot being reused.
    float& slot = window_[static_cast<std::size_t>(vm) *
                              static_cast<std::size_t>(kSlaWindowSteps) +
                          static_cast<std::size_t>(window_slot_)];
    window_sum_[static_cast<std::size_t>(vm)] -= slot;
    slot = 0.0f;
  }
}

void SlaAccountant::add_overload_downtime(int vm, double seconds) {
  check_vm(vm);
  MEGH_ASSERT(seconds >= 0.0, "downtime must be non-negative");
  MEGH_ASSERT(window_slot_ >= 0, "add downtime before begin_interval");
  downtime_s_[static_cast<std::size_t>(vm)] += seconds;
  window_[static_cast<std::size_t>(vm) *
              static_cast<std::size_t>(kSlaWindowSteps) +
          static_cast<std::size_t>(window_slot_)] +=
      static_cast<float>(seconds);
  window_sum_[static_cast<std::size_t>(vm)] += seconds;
}

void SlaAccountant::add_migration_downtime(int vm, double seconds) {
  const double scaled = seconds * kMigrationDowntimeFraction;
  migration_downtime_s_[static_cast<std::size_t>(vm)] += scaled;
  add_overload_downtime(vm, scaled);
}

double SlaAccountant::overload_downtime_s(double utilization,
                                          double interval_s) const {
  if (utilization <= config_.beta_overload) return 0.0;
  if (config_.overload_mode == OverloadDowntimeMode::kBinary) {
    return interval_s;
  }
  const double denom = 1.0 - config_.beta_overload;
  if (denom <= 0.0) return interval_s;
  const double frac =
      std::clamp((utilization - config_.beta_overload) / denom, 0.0, 1.0);
  return frac * interval_s;
}

int SlaAccountant::tier_of_pct(double pct) const {
  if (pct > kTier2DowntimePct) return 2;
  if (pct > kTier1DowntimePct) return 1;
  return 0;
}

double SlaAccountant::cumulative_level(int vm) const {
  const int t = tier_of_pct(cumulative_downtime_pct(vm));
  if (t == 0) return 0.0;
  const double fraction = t == 1 ? kTier1Fraction : kTier2Fraction;
  const double paid_usd = kVmPriceUsdPerHour *
                          requested_s_[static_cast<std::size_t>(vm)] / 3600.0;
  return fraction * paid_usd;
}

double SlaAccountant::settle_interval() {
  MEGH_ASSERT(window_slot_ >= 0, "settle before begin_interval");
  double delta = 0.0;
  if (config_.sla_accounting == SlaAccounting::kCumulative) {
    for (int vm = 0; vm < num_vms_; ++vm) {
      const double now = cumulative_level(vm);
      const std::size_t i = static_cast<std::size_t>(vm);
      delta += std::max(0.0, now - last_level_[i]);
      last_level_[i] = std::max(last_level_[i], now);
    }
  } else {
    const double interval_revenue = kVmPriceUsdPerHour * interval_s_ / 3600.0;
    for (int vm = 0; vm < num_vms_; ++vm) {
      switch (tier_of_pct(windowed_downtime_pct(vm))) {
        case 1: delta += kTier1Fraction * interval_revenue; break;
        case 2: delta += kTier2Fraction * interval_revenue; break;
        default: break;
      }
    }
  }
  total_cost_ += delta;
  return delta;
}

double SlaAccountant::requested_s(int vm) const {
  check_vm(vm);
  return requested_s_[static_cast<std::size_t>(vm)];
}

double SlaAccountant::downtime_s(int vm) const {
  check_vm(vm);
  return downtime_s_[static_cast<std::size_t>(vm)];
}

double SlaAccountant::migration_downtime_s(int vm) const {
  check_vm(vm);
  return migration_downtime_s_[static_cast<std::size_t>(vm)];
}

double SlaAccountant::cumulative_downtime_pct(int vm) const {
  check_vm(vm);
  const std::size_t i = static_cast<std::size_t>(vm);
  if (requested_s_[i] <= 0.0) return 0.0;
  return 100.0 * downtime_s_[i] / requested_s_[i];
}

double SlaAccountant::windowed_downtime_pct(int vm) const {
  check_vm(vm);
  const long long steps_in_window =
      std::min<long long>(intervals_seen_, kSlaWindowSteps);
  if (steps_in_window <= 0 || interval_s_ <= 0.0) return 0.0;
  const double window_requested = static_cast<double>(steps_in_window) *
                                  interval_s_;
  return 100.0 * window_sum_[static_cast<std::size_t>(vm)] / window_requested;
}

int SlaAccountant::tier(int vm) const {
  const double pct = config_.sla_accounting == SlaAccounting::kCumulative
                         ? cumulative_downtime_pct(vm)
                         : windowed_downtime_pct(vm);
  return tier_of_pct(pct);
}

int SlaAccountant::num_vms_in_tier(int t) const {
  int count = 0;
  for (int vm = 0; vm < num_vms_; ++vm) {
    if (tier(vm) == t) ++count;
  }
  return count;
}

}  // namespace megh
