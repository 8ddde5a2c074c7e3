// Resilience extension (no paper artifact): Megh and the MMT baselines
// under increasing fault pressure from the chaos subsystem (src/chaos).
//
// Three fault levels share one scenario: none (plus a zero-rate plan that
// must be decision-identical to running without any plan — the chaos
// layer's identity contract), low, and full. At each nonzero level a
// recovery-enabled Megh (down-host masking, SARSA remap of failed actions
// to the no-op) is compared against a fault-unaware Megh and THR-MMT.
// Shape to show: the zero-rate plan changes nothing, faults actually land,
// and recovery does not lose SLA ground to fault-blind Megh under the full
// fault scenario.
#include "baselines/mmt_policy.hpp"
#include "chaos/fault_plan.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment_registry.hpp"
#include "metrics/convergence.hpp"

namespace megh {
namespace {

struct FaultLevel {
  const char* name;
  /// Decorrelates this level's fault schedule from the run seed and from
  /// the other levels' schedules.
  std::uint64_t salt;
  double abort_rate;
  double host_failure_rate;
  double degradation_rate;
  double trace_gap_rate;
};

constexpr FaultLevel kLevels[] = {
    {"low", 0x10c4u, 0.05, 0.002, 0.02, 0.01},
    {"full", 0xf011u, 0.25, 0.010, 0.05, 0.02},
};

std::shared_ptr<const FaultPlan> compile_level(const FaultLevel& level,
                                               std::uint64_t seed,
                                               int hosts, int steps) {
  FaultPlanConfig config;
  config.enabled = true;
  config.seed = seed;
  config.migration_abort_rate = level.abort_rate;
  config.host_failure_rate = level.host_failure_rate;
  config.network_degradation_rate = level.degradation_rate;
  config.trace_gap_rate = level.trace_gap_rate;
  return std::make_shared<const FaultPlan>(
      FaultPlan::compile(config, hosts, steps));
}

std::function<std::unique_ptr<MigrationPolicy>()> make_megh(
    std::uint64_t seed, bool recovery) {
  return [seed, recovery] {
    MeghConfig config;
    config.seed = seed;
    config.max_migration_fraction = 0.1;
    // Down-host masking and the SARSA remap of failed actions.
    config.recovery = recovery;
    return std::make_unique<MeghPolicy>(config);
  };
}

ExperimentSpec resilience_spec() {
  ExperimentSpec spec;
  spec.name = "resilience";
  spec.paper_ref = "—";
  spec.title = "Resilience — fault injection & recovery (extension)";
  spec.paper_claim =
      "A zero-rate fault plan is decision-identical to a fault-free run, "
      "and Megh with recovery holds SLA cost at or below fault-unaware "
      "Megh under the full fault scenario";
  spec.order = 95;
  spec.params = {
      {"hosts", 60, 200, 16, "PM count"},
      {"vms", 90, 280, 24, "VM count"},
      {"steps", 288, 1008, 60, "5-minute steps"},
  };
  spec.plan = [](const ScaleValues& scale, std::uint64_t seed) {
    const int hosts = scale.get_int("hosts");
    const int vms = scale.get_int("vms");
    const int steps = scale.get_int("steps");
    ExperimentPlan plan;
    plan.scenarios.push_back(
        make_planetlab_scenario(hosts, vms, steps, seed));

    const auto add_cell = [&](std::string label, std::string group,
                              std::function<std::unique_ptr<MigrationPolicy>()>
                                  make,
                              double cap,
                              std::shared_ptr<const FaultPlan> faults,
                              double abort_rate, double recovery) {
      CellSpec cell;
      cell.label = std::move(label);
      cell.group = std::move(group);
      cell.rng_stream = seed;
      cell.make = std::move(make);
      cell.options.max_migration_fraction = cap;
      cell.options.faults = std::move(faults);
      cell.params["abort_rate"] = abort_rate;
      cell.params["recovery"] = recovery;
      plan.cells.push_back(std::move(cell));
    };

    // Identity pair: no plan at all vs an attached zero-rate plan with the
    // full recovery machinery armed. Decision columns must match exactly.
    add_cell("Megh", "none", make_megh(seed, false), 0.1, nullptr, 0.0, 0.0);
    FaultPlanConfig zero;
    zero.enabled = true;
    zero.seed = seed ^ 0x5eedfau;
    add_cell("Megh/zero", "zero", make_megh(seed, true), 0.1,
             std::make_shared<const FaultPlan>(
                 FaultPlan::compile(zero, hosts, steps)),
             0.0, 1.0);

    for (const FaultLevel& level : kLevels) {
      // One compiled plan per level, shared by every cell at that level so
      // all policies face the identical fault schedule.
      const std::shared_ptr<const FaultPlan> faults =
          compile_level(level, seed ^ level.salt, hosts, steps);
      const std::string suffix = std::string("/") + level.name;
      add_cell("Megh+recovery" + suffix, level.name, make_megh(seed, true),
               0.1, faults, level.abort_rate, 1.0);
      add_cell("Megh-norecovery" + suffix, level.name,
               make_megh(seed, false), 0.1, faults, level.abort_rate, 0.0);
      add_cell("THR-MMT" + suffix, level.name,
               [seed] { return make_thr_mmt(0.7, seed); }, 0.0, faults,
               level.abort_rate, 0.0);
    }
    return plan;
  };
  spec.report.summary_csv = "resilience";
  spec.report.series_csv = "";
  spec.report.convergence = true;
  spec.report.convergence_note =
      "convergence under faults (recovery should not slow Megh down):";
  // Convergence columns for results.json: computed per cell so downstream
  // tooling gets energy/SLA (totals) plus learning speed in one record.
  // Megh cells also carry their final recovery counters (0 without
  // recovery), so how often recovery acted is read from the results.
  spec.post = [](const ExperimentPlan&, ExperimentOutput& output) {
    for (CellResult& cell : output.cells) {
      const std::vector<double> cost = cell.result.sim.series("step_cost");
      const auto conv = convergence_step(cost);
      cell.derived["convergence_step"] =
          conv ? static_cast<double>(*conv)
               : static_cast<double>(cost.size());
      cell.derived["stable_cost"] = tail_mean(
          cost, conv.value_or(static_cast<int>(cost.size()) / 2));
      if (cell.result.sim.steps.empty()) continue;
      const PolicyStats& stats = cell.result.sim.steps.back().policy_stats;
      for (const char* key : {"faults_seen", "masked_candidates"}) {
        if (stats.count(key) != 0) cell.derived[key] = stats.at(key);
      }
    }
  };
  spec.checks = {
      {.description =
           "zero-rate fault plan is decision-identical to no plan",
       .custom =
           [](const ExperimentOutput& output) {
             const CellResult* base = output.find("Megh");
             const CellResult* zero = output.find("Megh/zero");
             MEGH_REQUIRE(base != nullptr && zero != nullptr,
                          "resilience: identity cells missing");
             const SimulationTotals& a = base->result.sim.totals;
             const SimulationTotals& b = zero->result.sim.totals;
             CheckOutcome outcome;
             const bool identical =
                 a.migrations == b.migrations &&
                 a.total_cost_usd == b.total_cost_usd &&
                 a.energy_cost_usd == b.energy_cost_usd &&
                 a.sla_cost_usd == b.sla_cost_usd &&
                 a.mean_active_hosts == b.mean_active_hosts;
             outcome.status = identical ? CheckOutcome::Status::kPass
                                        : CheckOutcome::Status::kFail;
             outcome.detail = strf(
                 "migrations %lld vs %lld, cost %.10g vs %.10g USD",
                 a.migrations, b.migrations, a.total_cost_usd,
                 b.total_cost_usd);
             return outcome;
           }},
      {.description = "full fault plan actually injects faults",
       .custom =
           [](const ExperimentOutput& output) {
             const CellResult* cell = output.find("Megh+recovery/full");
             MEGH_REQUIRE(cell != nullptr,
                          "resilience: full-level cell missing");
             const SimulationTotals& t = cell->result.sim.totals;
             CheckOutcome outcome;
             outcome.status = t.fault_events > 0
                                  ? CheckOutcome::Status::kPass
                                  : CheckOutcome::Status::kFail;
             outcome.detail = strf(
                 "fault_events=%lld aborted=%lld evacuations=%lld",
                 t.fault_events, t.aborted_migrations, t.forced_evacuations);
             return outcome;
           }},
      {.description =
           "recovery holds SLA cost at or below fault-unaware Megh (full "
           "faults)",
       .metric = "sla_cost_usd",
       .lhs = "Megh+recovery/full",
       .rhs = "Megh-norecovery/full",
       .relation = CheckRelation::kLessEq,
       .expected_at_reduced_scale = true},
  };
  return spec;
}

const ExperimentRegistrar registrar(resilience_spec());

}  // namespace
}  // namespace megh
