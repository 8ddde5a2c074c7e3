#include "harness/experiment.hpp"

#include "baselines/madvm.hpp"
#include "baselines/mmt_policy.hpp"
#include "core/megh_policy.hpp"

namespace megh {

ExperimentResult run_experiment(const Scenario& scenario,
                                MigrationPolicy& policy,
                                const ExperimentOptions& options) {
  Datacenter dc =
      build_datacenter(scenario, options.placement, options.placement_seed);
  SimulationConfig config =
      default_sim_config(options.max_migration_fraction);
  config.network = options.network;
  config.faults = options.faults;
  if (options.configure_sim) options.configure_sim(config);
  Simulation sim(std::move(dc), scenario.trace, config);
  ExperimentResult result;
  result.policy = policy.name();
  result.sim = sim.run(policy, options.steps);
  return result;
}

std::vector<PolicyEntry> paper_roster(std::uint64_t seed) {
  std::vector<PolicyEntry> roster;
  roster.push_back({"THR-MMT", [seed] { return make_thr_mmt(0.7, seed); }, 0.0});
  roster.push_back({"IQR-MMT", [seed] { return make_iqr_mmt(seed); }, 0.0});
  roster.push_back({"MAD-MMT", [seed] { return make_mad_mmt(seed); }, 0.0});
  roster.push_back({"LR-MMT", [seed] { return make_lr_mmt(seed); }, 0.0});
  roster.push_back({"LRR-MMT", [seed] { return make_lrr_mmt(seed); }, 0.0});
  roster.push_back({"Megh",
                    [seed] {
                      MeghConfig config;
                      config.seed = seed;
                      return std::make_unique<MeghPolicy>(config);
                    },
                    0.02});
  return roster;
}

std::vector<PolicyEntry> rl_roster(std::uint64_t seed) {
  std::vector<PolicyEntry> roster;
  roster.push_back({"Megh",
                    [seed] {
                      MeghConfig config;
                      config.seed = seed;
                      return std::make_unique<MeghPolicy>(config);
                    },
                    0.02});
  roster.push_back({"MadVM",
                    [seed] { return std::make_unique<MadVmPolicy>(seed); },
                    0.0});
  return roster;
}

}  // namespace megh
