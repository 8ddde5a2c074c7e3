#include "chaos/fault_plan.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/string_util.hpp"

namespace megh {

void FaultPlanConfig::validate() const {
  MEGH_REQUIRE(migration_abort_rate >= 0.0 && migration_abort_rate <= 1.0,
               "migration_abort_rate must lie in [0, 1]");
  MEGH_REQUIRE(host_failure_rate >= 0.0 && host_failure_rate <= 1.0,
               "host_failure_rate must lie in [0, 1]");
  MEGH_REQUIRE(network_degradation_rate >= 0.0 &&
                   network_degradation_rate <= 1.0,
               "network_degradation_rate must lie in [0, 1]");
  MEGH_REQUIRE(trace_gap_rate >= 0.0 && trace_gap_rate <= 1.0,
               "trace_gap_rate must lie in [0, 1]");
  MEGH_REQUIRE(host_downtime_steps_min >= 1 &&
                   host_downtime_steps_max >= host_downtime_steps_min,
               "host downtime range must satisfy 1 <= min <= max");
  MEGH_REQUIRE(degradation_steps_min >= 1 &&
                   degradation_steps_max >= degradation_steps_min,
               "degradation duration range must satisfy 1 <= min <= max");
  MEGH_REQUIRE(trace_gap_steps_min >= 1 &&
                   trace_gap_steps_max >= trace_gap_steps_min,
               "trace gap duration range must satisfy 1 <= min <= max");
  MEGH_REQUIRE(degraded_bandwidth_factor > 0.0 &&
                   degraded_bandwidth_factor <= 1.0,
               "degraded_bandwidth_factor must lie in (0, 1]");
}

namespace detail {

double hash_uniform(std::uint64_t seed, std::uint64_t step,
                    std::uint64_t ordinal) {
  // SplitMix64 over the mixed triple. The golden-ratio stride decorrelates
  // adjacent (step, ordinal) pairs; the finalizer is the standard one.
  std::uint64_t x = seed ^ (step * 0x9e3779b97f4a7c15ULL) ^
                    (ordinal * 0xbf58476d1ce4e5b9ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  // Top 53 bits → [0, 1) double, the usual exact conversion.
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace detail

namespace {

/// Canonical event order: by step, then class, then host — a stable total
/// order so hand-built and compiled plans replay identically.
bool event_before(const FaultEvent& a, const FaultEvent& b) {
  if (a.step != b.step) return a.step < b.step;
  if (a.type != b.type) {
    return static_cast<int>(a.type) < static_cast<int>(b.type);
  }
  return a.host < b.host;
}

/// Walk [0, num_steps) opening windows via per-step Bernoulli draws; while
/// a window is open no new one may start. Calls `emit(start, duration)`.
template <typename Emit>
void sample_windows(Rng& rng, double rate, int duration_min, int duration_max,
                    int num_steps, Emit emit) {
  if (rate <= 0.0) return;
  int s = 0;
  while (s < num_steps) {
    if (rng.bernoulli(rate)) {
      const int duration = static_cast<int>(
          rng.uniform_int(duration_min, duration_max));
      emit(s, std::min(duration, num_steps - s));
      s += duration + 1;  // cool-down: windows never touch
    } else {
      ++s;
    }
  }
}

}  // namespace

FaultPlan FaultPlan::compile(const FaultPlanConfig& config, int num_hosts,
                             int num_steps) {
  config.validate();
  MEGH_REQUIRE(num_hosts > 0, "fault plan needs a positive host count");
  MEGH_REQUIRE(num_steps > 0, "fault plan needs a positive step count");

  FaultPlan plan;
  plan.migration_abort_rate_ = config.migration_abort_rate;
  plan.seed_ = config.seed;
  plan.num_hosts_ = num_hosts;
  plan.num_steps_ = num_steps;

  Rng rng(config.seed);

  // Host crash/repair cycles: per host, Bernoulli failure draws outside
  // downtime, a uniform repair delay inside it. Host order is fixed, so the
  // schedule is a pure function of (seed, num_hosts, num_steps).
  for (int h = 0; h < num_hosts; ++h) {
    sample_windows(rng, config.host_failure_rate,
                   config.host_downtime_steps_min,
                   config.host_downtime_steps_max, num_steps,
                   [&](int start, int duration) {
                     plan.events_.push_back(
                         {start, FaultClass::kHostFailure, h, 0.0, duration});
                     if (start + duration < num_steps) {
                       plan.events_.push_back({start + duration,
                                               FaultClass::kHostRecovery, h,
                                               0.0, 0});
                     }
                   });
  }

  // Fabric-wide degradation windows.
  sample_windows(rng, config.network_degradation_rate,
                 config.degradation_steps_min, config.degradation_steps_max,
                 num_steps, [&](int start, int duration) {
                   plan.events_.push_back({start,
                                           FaultClass::kNetworkDegradation,
                                           -1,
                                           config.degraded_bandwidth_factor,
                                           duration});
                 });

  // Telemetry gaps.
  sample_windows(rng, config.trace_gap_rate, config.trace_gap_steps_min,
                 config.trace_gap_steps_max, num_steps,
                 [&](int start, int duration) {
                   plan.events_.push_back(
                       {start, FaultClass::kTraceGap, -1, 0.0, duration});
                 });

  std::sort(plan.events_.begin(), plan.events_.end(), event_before);
  return plan;
}

FaultPlan FaultPlan::from_events(std::vector<FaultEvent> events,
                                 double migration_abort_rate,
                                 std::uint64_t seed, int num_hosts,
                                 int num_steps) {
  MEGH_REQUIRE(num_hosts > 0, "fault plan needs a positive host count");
  MEGH_REQUIRE(num_steps > 0, "fault plan needs a positive step count");
  MEGH_REQUIRE(migration_abort_rate >= 0.0 && migration_abort_rate <= 1.0,
               "migration_abort_rate must lie in [0, 1]");
  for (const FaultEvent& e : events) {
    MEGH_REQUIRE(e.step >= 0 && e.step < num_steps,
                 strf("fault event step %d outside [0, %d)", e.step,
                      num_steps));
    const bool host_scoped = e.type == FaultClass::kHostFailure ||
                             e.type == FaultClass::kHostRecovery;
    if (host_scoped) {
      MEGH_REQUIRE(e.host >= 0 && e.host < num_hosts,
                   strf("fault event host %d outside [0, %d)", e.host,
                        num_hosts));
    }
    if (e.type == FaultClass::kNetworkDegradation) {
      MEGH_REQUIRE(e.magnitude > 0.0 && e.magnitude <= 1.0,
                   "degradation magnitude must lie in (0, 1]");
    }
    MEGH_REQUIRE(e.type != FaultClass::kMigrationAbort,
                 "migration aborts are rate-driven, not schedulable events");
  }
  FaultPlan plan;
  plan.events_ = std::move(events);
  std::sort(plan.events_.begin(), plan.events_.end(), event_before);
  plan.migration_abort_rate_ = migration_abort_rate;
  plan.seed_ = seed;
  plan.num_hosts_ = num_hosts;
  plan.num_steps_ = num_steps;
  return plan;
}

bool FaultPlan::abort_migration(int step, int ordinal) const {
  if (migration_abort_rate_ <= 0.0) return false;
  if (migration_abort_rate_ >= 1.0) return true;
  return detail::hash_uniform(seed_, static_cast<std::uint64_t>(step),
                              static_cast<std::uint64_t>(ordinal)) <
         migration_abort_rate_;
}

std::string FaultPlan::summary() const {
  int failures = 0, degradations = 0, gaps = 0;
  for (const FaultEvent& e : events_) {
    switch (e.type) {
      case FaultClass::kHostFailure: ++failures; break;
      case FaultClass::kNetworkDegradation: ++degradations; break;
      case FaultClass::kTraceGap: ++gaps; break;
      default: break;
    }
  }
  return strf("%d host failure(s), %d degradation window(s), %d trace "
              "gap(s), abort rate %g over %d steps x %d hosts",
              failures, degradations, gaps, migration_abort_rate_,
              num_steps_, num_hosts_);
}

}  // namespace megh
