#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "chaos/fault_injector.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "metrics/running_stats.hpp"
#include "sim/sharding.hpp"
#include "sim/sla.hpp"
#include "telemetry/telemetry.hpp"

namespace megh {

std::vector<double> SimulationResult::series(const std::string& field) const {
  // Resolve the field to an extractor once, not per step: built-in fields
  // map to a member read; anything else resolves to an interned StatKey
  // looked up in each snapshot's flat stats table.
  using Getter = double (*)(const StepSnapshot&);
  static constexpr std::pair<const char*, Getter> kBuiltins[] = {
      {"step_cost", [](const StepSnapshot& s) { return s.step_cost_usd; }},
      {"energy_cost", [](const StepSnapshot& s) { return s.energy_cost_usd; }},
      {"sla_cost", [](const StepSnapshot& s) { return s.sla_cost_usd; }},
      {"migrations",
       [](const StepSnapshot& s) { return static_cast<double>(s.migrations); }},
      {"cross_pod_migrations",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.cross_pod_migrations);
       }},
      {"active_hosts",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.active_hosts);
       }},
      {"overloaded_hosts",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.overloaded_hosts);
       }},
      {"exec_ms", [](const StepSnapshot& s) { return s.exec_ms; }},
      {"mean_host_util",
       [](const StepSnapshot& s) { return s.mean_host_util; }},
      {"aborted_migrations",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.aborted_migrations);
       }},
      {"rejected_down_host",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.rejected_down_host);
       }},
      {"forced_evacuations",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.forced_evacuations);
       }},
      {"stranded_vms",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.stranded_vms);
       }},
      {"hosts_down",
       [](const StepSnapshot& s) { return static_cast<double>(s.hosts_down); }},
      {"fault_events",
       [](const StepSnapshot& s) {
         return static_cast<double>(s.fault_events);
       }},
  };

  std::vector<double> out;
  out.reserve(steps.size());
  for (const auto& [name, getter] : kBuiltins) {
    if (field == name) {
      for (const auto& s : steps) out.push_back(getter(s));
      return out;
    }
  }
  // Policy stat: one registry lookup up front; per-step flat-table scan.
  const StatKey key = StatKey::find(field);
  for (const auto& s : steps) {
    const double* value = s.policy_stats.find(key);
    MEGH_REQUIRE(value != nullptr, "unknown snapshot field: " + field);
    out.push_back(*value);
  }
  return out;
}

void SimulationTotals::add_step(const StepSnapshot& snap) {
  total_cost_usd += snap.step_cost_usd;
  energy_cost_usd += snap.energy_cost_usd;
  sla_cost_usd += snap.sla_cost_usd;
  migrations += snap.migrations;
  rejected_migrations += snap.rejected_migrations;
  cross_pod_migrations += snap.cross_pod_migrations;
  aborted_migrations += snap.aborted_migrations;
  rejected_down_host += snap.rejected_down_host;
  forced_evacuations += snap.forced_evacuations;
  stranded_vm_steps += snap.stranded_vms;
  fault_events += snap.fault_events;
  ++steps;
}

TraceRecord step_trace_record(const StepSnapshot& snap,
                              const SimulationTotals& totals) {
  TraceRecord record;
  record.step = snap.step;
  record.counters = {
      {"sim.steps", totals.steps},
      {"sim.migrations_applied", totals.migrations},
      {"sim.migrations_rejected", totals.rejected_migrations},
      {"chaos.fault_events", totals.fault_events},
      {"chaos.migrations_aborted", totals.aborted_migrations},
      {"chaos.forced_evacuations", totals.forced_evacuations},
      {"chaos.stranded_vm_steps", totals.stranded_vm_steps},
  };
  record.gauges = {
      {"sim.step_cost_usd", snap.step_cost_usd},
      {"sim.energy_cost_usd", snap.energy_cost_usd},
      {"sim.sla_cost_usd", snap.sla_cost_usd},
      {"sim.active_hosts", static_cast<double>(snap.active_hosts)},
      {"sim.overloaded_hosts", static_cast<double>(snap.overloaded_hosts)},
      {"sim.mean_host_util", snap.mean_host_util},
  };
  const PolicyStats& stats = snap.policy_stats;
  for (int i = 0; i < stats.size(); ++i) {
    record.gauges[stats.key(i).name()] = stats.value(i);
  }
  return record;
}

InvalidActionError::InvalidActionError(const std::string& policy, int step,
                                       int vm, int target_host, int num_vms,
                                       int num_hosts)
    : Error(strf("policy '%s' returned an invalid action at step %d: "
                 "vm=%d (valid 0..%d), target_host=%d (valid 0..%d)",
                 policy.c_str(), step, vm, num_vms - 1, target_host,
                 num_hosts - 1)),
      policy_(policy),
      step_(step),
      vm_(vm),
      target_host_(target_host) {}

namespace {

// Deterministic evacuation target for a VM on a failed host: the live host
// with the most free RAM that fits it (ties broken by the lowest index), or
// -1 when nothing fits (the VM stays stranded until its host recovers).
int evacuation_target(const Datacenter& dc, const FaultInjector& chaos,
                      int vm) {
  int best = -1;
  double best_free = -1.0;
  for (int h = 0; h < dc.num_hosts(); ++h) {
    if (chaos.host_down(h)) continue;
    if (!dc.fits(vm, h)) continue;
    const double free = dc.host_spec(h).ram_mb - dc.host_ram_used(h);
    if (free > best_free) {
      best_free = free;
      best = h;
    }
  }
  return best;
}

}  // namespace

Simulation::Simulation(Datacenter dc, const TraceTable& trace,
                       SimulationConfig config)
    : dc_(std::move(dc)), trace_(trace), config_(config) {
  config_.cost.validate();
  MEGH_REQUIRE(config_.interval_s > 0, "interval must be positive");
  MEGH_REQUIRE(config_.jobs >= 0, "jobs must be >= 0 (0 = auto)");
  MEGH_REQUIRE(trace_.num_vms() == dc_.num_vms(),
               strf("trace has %d VMs but datacenter has %d", trace_.num_vms(),
                    dc_.num_vms()));
  MEGH_REQUIRE(trace_.num_steps() > 0, "trace has no steps");
  if (config_.network != nullptr) {
    MEGH_REQUIRE(config_.network->capacity() >= dc_.num_hosts(),
                 strf("fat-tree capacity %d < %d hosts",
                      config_.network->capacity(), dc_.num_hosts()));
  }
  if (config_.faults != nullptr && !config_.faults->zero()) {
    MEGH_REQUIRE(config_.faults->num_hosts() == dc_.num_hosts(),
                 strf("fault plan compiled for %d hosts but datacenter has %d",
                      config_.faults->num_hosts(), dc_.num_hosts()));
  }
  for (int vm = 0; vm < dc_.num_vms(); ++vm) {
    MEGH_REQUIRE(dc_.host_of(vm) != kUnplaced,
                 strf("vm %d is unplaced; run place_initial first", vm));
  }
  // Host VM lists never reallocate after this: migrations in the step loop
  // stay heap-allocation-free no matter how occupancy shifts.
  dc_.reserve_full_occupancy();
}

SimulationResult Simulation::run(MigrationPolicy& policy, int num_steps) {
  const int steps =
      num_steps < 0 ? trace_.num_steps() : std::min(num_steps, trace_.num_steps());
  SimulationResult result;
  result.steps.reserve(static_cast<std::size_t>(steps));
  SlaAccountant sla(dc_.num_vms(), config_.cost);

  // Chaos layer: replay the fault plan (if any) through an injector. The
  // plan was compiled up front from its own seed, so attaching one never
  // perturbs the trace, policy or scenario RNG streams.
  std::optional<FaultInjector> injector;
  if (config_.faults != nullptr) {
    if (!config_.faults->zero()) {
      MEGH_REQUIRE(config_.faults->num_steps() >= steps,
                   strf("fault plan covers %d steps but run asked for %d",
                        config_.faults->num_steps(), steps));
    }
    injector.emplace(*config_.faults, dc_.num_hosts());
  }
  FaultInjector* chaos = injector.has_value() ? &*injector : nullptr;

  // Sharded-step execution context: pods when a fabric is attached,
  // contiguous blocks otherwise. Built once per run — the pool's workers
  // park between dispatches, so per-step fan-out costs a wakeup, not a
  // thread spawn. The plan never depends on `jobs`, and every cross-shard
  // merge below is exact, so any jobs value yields bit-identical results.
  const ShardExecutor exec(make_step_shards(config_.network.get(),
                                            dc_.num_hosts()),
                           config_.jobs);

  policy.begin(dc_, config_.cost, config_.interval_s);

  const int migration_cap =
      config_.max_migration_fraction > 0
          ? std::max(1, static_cast<int>(std::ceil(
                            config_.max_migration_fraction * dc_.num_vms())))
          : dc_.num_vms();

  double last_step_cost = 0.0;
  // Step-scope buffers, hoisted so the loop itself never allocates: the
  // trace column, the host-utilization snapshot and the action list are
  // all reused across intervals.
  std::vector<double> vm_util(static_cast<std::size_t>(dc_.num_vms()));
  std::vector<double> host_util;
  host_util.reserve(static_cast<std::size_t>(dc_.num_hosts()));
  std::vector<MigrationAction> actions;
  actions.reserve(static_cast<std::size_t>(migration_cap));
  std::vector<MigrationOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(dc_.num_vms()));
  std::vector<int> evac_vms;
  evac_vms.reserve(static_cast<std::size_t>(dc_.num_vms()));
  RunningStats active_hosts_stats, exec_stats;
  // SLATAH bookkeeping (Beloglazov): per host, active time and time spent
  // above the overload threshold.
  std::vector<double> host_active_s(static_cast<std::size_t>(dc_.num_hosts()),
                                    0.0);
  std::vector<double> host_overload_s(
      static_cast<std::size_t>(dc_.num_hosts()), 0.0);
  // Per-host scratch for the sharded settle phase: each shard writes its
  // hosts' entries, then a serial in-host-order fold consumes them so the
  // RunningStats accumulation and the power sum keep the exact operation
  // order of the serial step (bit-identity across job counts).
  std::vector<double> settle_util(static_cast<std::size_t>(dc_.num_hosts()),
                                  -1.0);
  std::vector<std::uint8_t> settle_overloaded(
      static_cast<std::size_t>(dc_.num_hosts()), 0);
  std::vector<double> host_watts(static_cast<std::size_t>(dc_.num_hosts()),
                                 0.0);
  double total_watt_seconds = 0.0;

  Telemetry& telemetry = Telemetry::instance();

  for (int step = 0; step < steps; ++step) {
    if (chaos != nullptr) chaos->begin_step(step);
    {
      // 1. New demands. During a chaos trace gap the column read is skipped
      // and demands freeze at the last observed values.
      MEGH_TRACE_SCOPE("sim.trace_read");
      if (chaos == nullptr || !chaos->in_trace_gap()) {
        trace_.read_step(step, vm_util);
      }
      dc_.set_demands(vm_util, &exec);
      sla.begin_interval(config_.interval_s);
    }

    StepSnapshot snap;
    snap.step = step;

    // 1b. Forced evacuation off hosts that failed this step: deterministic
    // greedy re-placement (most free RAM, ties to the lowest index). The
    // crash-restart copy is hard downtime; VMs that fit nowhere stay
    // stranded on the dead host and are charged at settle time.
    if (chaos != nullptr && !chaos->failed_this_step().empty()) {
      for (int down : chaos->failed_this_step()) {
        evac_vms.assign(dc_.vms_on(down).begin(), dc_.vms_on(down).end());
        for (int vm : evac_vms) {
          const int target = evacuation_target(dc_, *chaos, vm);
          if (target < 0) continue;
          const bool moved = dc_.migrate(vm, target);
          MEGH_ASSERT(moved, "evacuation target must fit");
          ++snap.forced_evacuations;
          const double bw =
              dc_.host_spec(target).bw_mbps * chaos->bandwidth_factor();
          sla.add_overload_downtime(
              vm, migration_time_s(dc_.vm_spec(vm).ram_mb, bw));
        }
      }
    }

    // 2. Policy decision (timed).
    StepObservation obs;
    obs.step = step;
    obs.interval_s = config_.interval_s;
    obs.dc = &dc_;
    obs.vm_util = vm_util;
    dc_.all_host_utilization(host_util, &exec);
    obs.host_util = host_util;
    obs.last_step_cost = last_step_cost;
    obs.cost = &config_.cost;
    obs.network = config_.network.get();
    obs.exec = &exec;
    if (chaos != nullptr) obs.host_down = chaos->down_mask();

    Stopwatch watch;
    actions.clear();
    {
      MEGH_TRACE_SCOPE("sim.decide");
      policy.decide_into(obs, actions);
    }
    const double exec_ms = watch.elapsed_ms();
    snap.exec_ms = exec_ms;

    // 3. Apply migrations.
    {
    MEGH_TRACE_SCOPE("sim.migrate");
    outcomes.clear();
    int abort_ordinal = 0;
    for (const MigrationAction& a : actions) {
      if (a.vm < 0 || a.vm >= dc_.num_vms() || a.target_host < 0 ||
          a.target_host >= dc_.num_hosts()) {
        throw InvalidActionError(policy.name(), step, a.vm, a.target_host,
                                 dc_.num_vms(), dc_.num_hosts());
      }
      if (chaos != nullptr && chaos->host_down(a.target_host)) {
        ++snap.rejected_down_host;
        outcomes.push_back(
            {a.vm, a.target_host, MigrationVerdict::kTargetDown});
        continue;
      }
      if (snap.migrations + snap.aborted_migrations >= migration_cap) {
        ++snap.rejected_migrations;
        outcomes.push_back({a.vm, a.target_host, MigrationVerdict::kRejected});
        continue;
      }
      const int source = dc_.host_of(a.vm);
      if (source == a.target_host || !dc_.fits(a.vm, a.target_host)) {
        ++snap.rejected_migrations;  // no-op or RAM misfit
        outcomes.push_back({a.vm, a.target_host, MigrationVerdict::kRejected});
        continue;
      }
      // Mid-copy abort draw: stateless in (plan seed, step, ordinal), so a
      // replay sees the same verdicts regardless of scheduling.
      const bool aborted =
          chaos != nullptr && chaos->abort_migration(abort_ordinal++);
      double bw = dc_.host_spec(source).bw_mbps;
      if (config_.network != nullptr) {
        bw = config_.network->path_bandwidth_mbps(source, a.target_host);
      }
      if (chaos != nullptr) bw *= chaos->bandwidth_factor();
      if (aborted) {
        ++snap.aborted_migrations;
      } else {
        const bool moved = dc_.migrate(a.vm, a.target_host);
        MEGH_ASSERT(moved, "pre-checked migration must apply");
        ++snap.migrations;
        if (config_.network != nullptr) {
          switch (config_.network->hops(source, a.target_host)) {
            case 2: ++snap.same_edge_migrations; break;
            case 4: ++snap.same_pod_migrations; break;
            default: ++snap.cross_pod_migrations; break;
          }
        }
      }
      const double ram = dc_.vm_spec(a.vm).ram_mb;
      if (config_.migration_model ==
          SimulationConfig::MigrationTimeModel::kPreCopy) {
        const MigrationEstimate est = precopy_migration(
            ram, bw,
            effective_dirty_rate(dc_.vm_utilization(a.vm), config_.precopy));
        // Stop-and-copy is hard downtime (charged in full, bypassing the
        // degradation fraction); the copy rounds degrade service and go
        // through add_migration_downtime's scaling. An aborted migration
        // wastes the copy rounds but never reaches stop-and-copy.
        if (!aborted) sla.add_overload_downtime(a.vm, est.downtime_s);
        sla.add_migration_downtime(a.vm, est.copy_s);
      } else {
        sla.add_migration_downtime(a.vm, migration_time_s(ram, bw));
      }
      outcomes.push_back({a.vm, a.target_host,
                          aborted ? MigrationVerdict::kAborted
                                  : MigrationVerdict::kApplied});
    }
    }
    policy.observe_outcomes(outcomes);

    {
    MEGH_TRACE_SCOPE("sim.settle");  // covers 4–6

    // 4. Overload accounting on the post-migration allocation, sharded:
    // each host's work (its active/overload seconds, its VMs' overload
    // downtime — a VM lives on exactly one host — and its power term for
    // phase 5) touches only that host's state, so shards never contend.
    // Down hosts are excluded here (no service means no overload, no
    // active time) and settled separately below. Order-sensitive
    // floating-point folds (the utilization mean, the power sum) happen in
    // the serial in-host-order pass right after, reading the per-host
    // values the shards wrote — the exact sequence the serial step ran.
    const auto account_host = [&](int h) {
      const std::size_t i = static_cast<std::size_t>(h);
      const PowerModel& power = dc_.host_spec(h).power;
      host_watts[i] = dc_.is_active(h)
                          ? power.watts(std::min(1.0, dc_.host_utilization(h)))
                          : power.sleep_watts();
      settle_util[i] = -1.0;
      settle_overloaded[i] = 0;
      if (chaos != nullptr && chaos->host_down(h)) return;
      if (!dc_.is_active(h)) return;
      const double util = dc_.host_utilization(h);
      settle_util[i] = std::min(1.0, util);
      host_active_s[i] += config_.interval_s;
      if (util > config_.cost.beta_overload) {
        settle_overloaded[i] = 1;
        host_overload_s[i] += config_.interval_s;
      }
      const double downtime = sla.overload_downtime_s(util, config_.interval_s);
      if (downtime > 0.0) {
        for (int vm : dc_.vms_on(h)) sla.add_overload_downtime(vm, downtime);
      }
    };
    exec.for_items(account_host);
    RunningStats util_stats;
    for (int h = 0; h < dc_.num_hosts(); ++h) {
      const std::size_t i = static_cast<std::size_t>(h);
      if (settle_util[i] < 0.0) continue;
      util_stats.add(settle_util[i]);
      if (settle_overloaded[i] != 0) ++snap.overloaded_hosts;
    }
    // 4b. Down hosts: stranded VMs (nowhere to evacuate to) receive zero
    // service for the whole interval.
    int down_active = 0;
    if (chaos != nullptr && chaos->hosts_down() > 0) {
      for (int h = 0; h < dc_.num_hosts(); ++h) {
        if (!chaos->host_down(h) || !dc_.is_active(h)) continue;
        ++down_active;
        for (int vm : dc_.vms_on(h)) {
          ++snap.stranded_vms;
          sla.add_overload_downtime(vm, config_.interval_s);
        }
      }
    }
    snap.active_hosts = dc_.active_host_count() - down_active;
    snap.mean_host_util = util_stats.mean();
    snap.hosts_down = chaos != nullptr ? chaos->hosts_down() : 0;
    snap.fault_events =
        (chaos != nullptr ? chaos->events_this_step() : 0) +
        snap.aborted_migrations;

    // 5. Costs. The per-host watt terms were computed in the sharded phase
    // above (host_watts[h] is exactly the term datacenter_power_watts
    // evaluates for host h); summing them serially in ascending host order
    // reproduces that function's fold bit-for-bit. A down host draws no
    // power: subtract exactly the term the sum added for it, so the
    // fault-free total stays bit-identical to interval_energy_cost_usd.
    double watts = 0.0;
    for (int h = 0; h < dc_.num_hosts(); ++h) {
      watts += host_watts[static_cast<std::size_t>(h)];
    }
    if (chaos != nullptr && chaos->hosts_down() > 0) {
      for (int h = 0; h < dc_.num_hosts(); ++h) {
        if (!chaos->host_down(h)) continue;
        watts -= host_watts[static_cast<std::size_t>(h)];
      }
    }
    total_watt_seconds += watts * config_.interval_s;
    snap.energy_cost_usd = energy_cost_usd(watts, config_.interval_s);
    snap.sla_cost_usd = sla.settle_interval();
    snap.step_cost_usd = snap.energy_cost_usd + snap.sla_cost_usd;
    last_step_cost = snap.step_cost_usd;
    policy.observe_cost(snap.step_cost_usd);
    policy.stats(snap.policy_stats);

    // 6. Totals.
    result.totals.add_step(snap);
    active_hosts_stats.add(snap.active_hosts);
    exec_stats.add(exec_ms);
    result.steps.push_back(snap);
    }

    // Per-step telemetry flush, after the interval's costs are settled.
    // The record is built only when something will read it.
    if (telemetry.level() != TraceLevel::kOff) {
      telemetry.flush_step(
          step_trace_record(result.steps.back(), result.totals));
    }
    if (config_.on_step) config_.on_step(result.steps.back());
  }

  // Composite SLA metrics (Beloglazov): SLATAH over hosts that were ever
  // active, PDM over all VMs, SLAV/ESV products.
  RunningStats slatah_stats;
  for (int h = 0; h < dc_.num_hosts(); ++h) {
    const std::size_t i = static_cast<std::size_t>(h);
    if (host_active_s[i] > 0.0) {
      slatah_stats.add(host_overload_s[i] / host_active_s[i]);
    }
  }
  RunningStats pdm_stats;
  for (int vm = 0; vm < dc_.num_vms(); ++vm) {
    const double requested = sla.requested_s(vm);
    if (requested > 0.0) {
      pdm_stats.add(sla.migration_downtime_s(vm) / requested);
    }
  }
  result.totals.slatah = slatah_stats.mean();
  result.totals.pdm = pdm_stats.mean();
  result.totals.slav = result.totals.slatah * result.totals.pdm;
  result.totals.energy_kwh = total_watt_seconds / 3.6e6;
  result.totals.esv = result.totals.energy_kwh * result.totals.slav;

  result.totals.mean_active_hosts = active_hosts_stats.mean();
  result.totals.mean_exec_ms = exec_stats.mean();
  result.totals.max_exec_ms = exec_stats.max();
  return result;
}

}  // namespace megh
