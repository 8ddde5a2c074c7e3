// Ablation bench (beyond the paper's figures): isolates the design choices
// DESIGN.md documents for this reproduction —
//   * the advantage baseline in the critic update vs Algorithm 1's raw
//     cost accumulation;
//   * windowed vs paper-literal cumulative SLA accounting;
//   * graded (excess) vs binary overload downtime;
//   * Q-learning with and without its offline training phase (the paper's
//     Sec. 2.2 argument for why Q-learning was dropped as a comparator);
//   * whether learning pays at all: Megh with a frozen critic (same draws,
//     no LSPI update) and THR-MMT held to Megh's 2% cap.
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/mmt_policy.hpp"
#include "baselines/qlearning.hpp"
#include "baselines/sandpiper.hpp"
#include "common/csv.hpp"
#include "common/string_util.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment_registry.hpp"
#include "harness/report.hpp"

namespace megh {
namespace {

/// One Megh variant cell: tweaked MeghConfig and/or tweaked cost model,
/// always under the paper's 2% migration cap.
CellSpec megh_variant(const std::string& label, std::uint64_t seed,
                      std::function<void(MeghConfig&)> tweak = nullptr,
                      std::function<void(CostConfig&)> cost = nullptr) {
  CellSpec cell;
  cell.label = label;
  cell.rng_stream = seed;
  cell.make = [seed, tweak] {
    MeghConfig config;
    config.seed = seed;
    if (tweak) tweak(config);
    return std::make_unique<MeghPolicy>(config);
  };
  cell.options.max_migration_fraction = 0.02;
  if (cost) {
    cell.options.configure_sim = [cost](SimulationConfig& config) {
      cost(config.cost);
    };
  }
  return cell;
}

ExperimentSpec ablation_spec() {
  ExperimentSpec spec;
  spec.name = "ablation";
  spec.paper_ref = "—";
  spec.title = "Ablation — reproduction design choices";
  spec.paper_claim = "(not a paper table; justifies DESIGN.md decisions)";
  spec.order = 110;
  spec.params = {
      {"hosts", 80, 80, 24, "PM count"},
      {"vms", 120, 120, 36, "VM count"},
      {"steps", 576, 2016, 60, "steps per run"},
  };
  spec.plan = [](const ScaleValues& scale, std::uint64_t seed) {
    const int hosts = scale.get_int("hosts");
    const int vms = scale.get_int("vms");
    const int steps = scale.get_int("steps");
    ExperimentPlan plan;
    plan.scenarios.push_back(
        make_planetlab_scenario(hosts, vms, steps, seed));
    // Offline-training workload for the last Q-learning cell: a *different*
    // seed's trace.
    plan.scenarios.push_back(
        make_planetlab_scenario(hosts, vms, steps, seed + 5000));

    plan.cells.push_back(megh_variant("Megh (default)", seed));
    plan.cells.push_back(megh_variant(
        "Megh, raw Algorithm-1 costs", seed,
        [](MeghConfig& c) { c.advantage_baseline = false; }));
    plan.cells.push_back(megh_variant(
        "Megh, delta = d (paper literal)", seed,
        // paper's B0 = (1/d) I: Q-scale ~1/d, actor ~uniform
        [](MeghConfig& c) { c.delta = -1.0; }));
    plan.cells.push_back(megh_variant(
        "Megh, cumulative SLA (paper-lit.)", seed, nullptr,
        [](CostConfig& c) { c.sla_accounting = SlaAccounting::kCumulative; }));
    plan.cells.push_back(megh_variant(
        "Megh, binary overload downtime", seed, nullptr,
        [](CostConfig& c) { c.overload_mode = OverloadDowntimeMode::kBinary; }));
    plan.cells.push_back(megh_variant("Megh, gamma = 0 (myopic)", seed,
                                      [](MeghConfig& c) { c.gamma = 0.0; }));
    plan.cells.push_back(megh_variant("Megh, gamma = 0.9", seed,
                                      [](MeghConfig& c) { c.gamma = 0.9; }));
    plan.cells.push_back(megh_variant(
        "Megh, frozen critic", seed,
        [](MeghConfig& c) { c.learning_enabled = false; }));
    {
      CellSpec cell;
      cell.label = "THR-MMT, 2% cap";
      cell.rng_stream = seed;
      cell.make = [seed] { return make_thr_mmt(0.7, seed); };
      cell.options.max_migration_fraction = 0.02;
      plan.cells.push_back(std::move(cell));
    }

    {
      CellSpec cell;
      cell.label = "Sandpiper (hotspot-only)";
      cell.rng_stream = seed;
      cell.make = [] { return std::make_unique<SandpiperPolicy>(); };
      plan.cells.push_back(std::move(cell));
    }
    // Q-learning with and without its offline training phase (Sec. 2.2).
    {
      CellSpec cell;
      cell.label = "Q-learning, no offline training";
      cell.rng_stream = seed;
      cell.make = [seed] {
        auto ql = std::make_unique<QLearningPolicy>(seed);
        ql->set_training(false);  // deployed cold: no training phase
        return ql;
      };
      plan.cells.push_back(std::move(cell));
    }
    {
      CellSpec cell;
      cell.label = "Q-learning, offline-trained";
      cell.rng_stream = seed;
      cell.run = [seed](const std::vector<Scenario>& scenarios) {
        QLearningPolicy ql(seed);
        // Offline training pass on the alternate workload, then deploy.
        ExperimentOptions options;
        ql.set_training(true);
        (void)run_experiment(scenarios[1], ql, options);
        ql.set_training(false);
        return run_experiment(scenarios[0], ql, options);
      };
      plan.cells.push_back(std::move(cell));
    }
    return plan;
  };
  spec.post = [](const ExperimentPlan&, ExperimentOutput& output) {
    const auto path = bench_output_dir() / "ablation_megh.csv";
    CsvWriter csv(path);
    csv.header({"variant", "total_cost_usd", "sla_cost_usd", "migrations",
                "mean_active_hosts"});
    std::vector<std::vector<std::string>> rows;
    for (const CellResult& cell : output.cells) {
      const SimulationTotals& t = cell.result.sim.totals;
      rows.push_back({cell.label, strf("%.1f", t.total_cost_usd),
                      strf("%.1f", t.sla_cost_usd),
                      strf("%lld", t.migrations),
                      strf("%.1f", t.mean_active_hosts)});
      csv.row_str({cell.label, strf("%.4f", t.total_cost_usd),
                   strf("%.4f", t.sla_cost_usd), strf("%lld", t.migrations),
                   strf("%.2f", t.mean_active_hosts)});
      std::printf("  %-34s cost %8.1f  SLA %8.1f  migrations %6lld\n",
                  cell.label.c_str(), t.total_cost_usd, t.sla_cost_usd,
                  t.migrations);
    }
    print_table("Ablation summary",
                {"variant", "cost", "SLA", "migrations", "hosts"}, rows);
    record_artifact(output, path.string());
  };
  return spec;
}

const ExperimentRegistrar registrar(ablation_spec());

}  // namespace
}  // namespace megh
