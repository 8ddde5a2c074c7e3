// megh_sim — command-line front end to the whole library: pick a workload
// (synthetic or a real trace file), a fleet, a policy, optionally a
// fat-tree fabric, run the simulation and get the summary plus optional
// per-step CSV. Megh runs can save/load learner checkpoints for
// warm-started deployments.
//
// Examples:
//   megh_sim --scenario planetlab --hosts 200 --vms 300 --steps 576
//   megh_sim --policy thr-mmt --scenario google
//   megh_sim --policy megh --checkpoint-save megh.ckpt
//   megh_sim --policy megh --checkpoint-load megh.ckpt --seed 9
//   megh_sim --trace my_trace.csv --policy megh --series run.csv
//   megh_sim --policy megh --oversubscription 4   # fat-tree fabric
//   megh_sim --policy hier-megh --hosts 1024 --oversubscription 4 --jobs 4
//   megh_sim --policy megh --trace-out run.jsonl  # per-step telemetry
#include <cstdio>
#include <memory>

#include "baselines/madvm.hpp"
#include "baselines/mmt_policy.hpp"
#include "baselines/qlearning.hpp"
#include "baselines/sandpiper.hpp"
#include "baselines/simple_policies.hpp"
#include "common/args.hpp"
#include "core/checkpoint.hpp"
#include "core/hierarchical_megh.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "metrics/convergence.hpp"
#include "metrics/timeseries.hpp"
#include "serve/client.hpp"
#include "serve/socket.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/csv_trace.hpp"

namespace {

using namespace megh;

std::unique_ptr<MigrationPolicy> make_policy(
    const std::string& name, std::uint64_t seed, bool network_oblivious,
    std::shared_ptr<const FatTreeTopology> network,
    const std::string& checkpoint_load, const std::string& serve_endpoint) {
  if (!checkpoint_load.empty() && name != "megh" && name != "hier-megh") {
    throw ConfigError(
        "--checkpoint-load only applies to --policy megh | hier-megh");
  }
  if (!serve_endpoint.empty()) {
    MEGH_REQUIRE(name == "megh",
                 "--serve-endpoint drives the daemon's flat Megh policy; "
                 "combine it with --policy megh");
    MEGH_REQUIRE(checkpoint_load.empty(),
                 "--checkpoint-load does not apply to a served policy (the "
                 "daemon recovers its own state from its serve directory)");
    MeghConfig config;
    config.seed = seed;
    config.candidates.network_aware = !network_oblivious;
    return std::make_unique<serve::RemoteMeghPolicy>(
        std::make_shared<serve::SocketTransport>(serve_endpoint), config,
        std::move(network));
  }
  if (name == "megh") {
    MeghConfig config;
    config.seed = seed;
    config.candidates.network_aware = !network_oblivious;
    if (!checkpoint_load.empty()) {
      // The adapter re-loads at every begin(), so the warm start survives
      // the engine re-running begin() for the real run (a plain load
      // before run() would be wiped by that second begin()).
      return std::make_unique<WarmStartMeghPolicy>(config, checkpoint_load);
    }
    return std::make_unique<MeghPolicy>(config);
  }
  if (name == "hier-megh") {
    HierarchicalMeghConfig config;
    config.base.seed = seed;
    config.base.candidates.network_aware = !network_oblivious;
    config.network = std::move(network);
    if (!checkpoint_load.empty()) {
      return std::make_unique<WarmStartMeghPolicy>(config, checkpoint_load);
    }
    return std::make_unique<HierarchicalMeghPolicy>(config);
  }
  if (name == "thr-mmt") return make_thr_mmt(0.7, seed);
  if (name == "iqr-mmt") return make_iqr_mmt(seed);
  if (name == "mad-mmt") return make_mad_mmt(seed);
  if (name == "lr-mmt") return make_lr_mmt(seed);
  if (name == "lrr-mmt") return make_lrr_mmt(seed);
  if (name == "madvm") return std::make_unique<MadVmPolicy>(seed);
  if (name == "qlearning") return std::make_unique<QLearningPolicy>(seed);
  if (name == "sandpiper") return std::make_unique<SandpiperPolicy>();
  if (name == "none") return std::make_unique<NoMigrationPolicy>();
  if (name == "random") return std::make_unique<RandomPolicy>(1, seed);
  throw ConfigError(
      "unknown --policy '" + name +
      "' (megh|hier-megh|thr-mmt|iqr-mmt|mad-mmt|lr-mmt|lrr-mmt|madvm|"
      "qlearning|sandpiper|none|random)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace megh;
  Args args;
  args.add_flag("scenario", "planetlab | google", "planetlab");
  args.add_flag("trace", "CSV trace file (overrides --scenario workload)", "");
  args.add_flag("hosts", "number of physical machines", "100");
  args.add_flag("vms", "number of virtual machines", "150");
  args.add_flag("steps", "5-minute intervals to run (-1 = whole trace)", "576");
  args.add_flag("seed", "experiment seed", "42");
  args.add_flag("policy", "scheduler to run (see --help text)", "megh");
  args.add_flag("cap", "per-step migration cap as a fraction of VMs "
                       "(0 = uncapped; megh default 0.02)", "-1");
  args.add_flag("oversubscription",
                "attach a fat-tree fabric with this oversubscription "
                "(0 = flat network)", "0");
  args.add_flag("jobs", "worker threads for the sharded step (and for "
                        "hier-megh's per-pod learners)", "1");
  args.add_flag("series", "write the per-step series to this CSV", "");
  args.add_flag("checkpoint-save", "save the Megh learner here after the run",
                "");
  args.add_flag("checkpoint-load", "warm-start Megh from this checkpoint", "");
  args.add_flag("checkpoint-every",
                "also save the checkpoint every N steps during the run "
                "(crash-atomic; needs --checkpoint-save)", "0");
  args.add_flag("serve-endpoint",
                "drive a running megh_serve daemon at this Unix socket "
                "instead of an in-process policy (use with --policy megh)",
                "");
  args.add_bool("network-oblivious", "disable Megh's pod-aware candidates");
  args.add_flag("migration-model",
                "flat (paper's RAM/BW bulk copy) | precopy (iterative "
                "pre-copy with stop-and-copy downtime)", "flat");
  args.add_flag("trace-out",
                "write per-step phase timings and counters (JSONL) here; "
                "aggregate with trace_summary", "");
  args.add_flag("trace-level",
                "telemetry detail: off | counters | phases "
                "(default phases when --trace-out is set)", "");
  try {
    if (!args.parse(argc, argv)) return 0;

    // --- telemetry ---
    JsonlTraceSink* trace_sink = nullptr;
    if (!args.get("trace-out").empty() || !args.get("trace-level").empty()) {
      const TraceLevel trace_level =
          args.get("trace-level").empty()
              ? TraceLevel::kPhases
              : parse_trace_level(args.get("trace-level"));
      std::unique_ptr<TraceSink> sink;
      if (!args.get("trace-out").empty() &&
          trace_level != TraceLevel::kOff) {
        auto jsonl = std::make_unique<JsonlTraceSink>(args.get("trace-out"));
        trace_sink = jsonl.get();
        sink = std::move(jsonl);
      }
      Telemetry::instance().configure(std::move(sink), trace_level);
    }

    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const int hosts = static_cast<int>(args.get_int("hosts"));
    int vms = static_cast<int>(args.get_int("vms"));
    const int steps = static_cast<int>(args.get_int("steps"));
    const std::string policy_name = args.get("policy");

    // --- scenario ---
    Scenario scenario;
    if (!args.get("trace").empty()) {
      scenario.name = args.get("trace");
      scenario.trace = load_trace_csv(args.get("trace"));
      vms = scenario.trace.num_vms();
      scenario.hosts = standard_host_fleet(hosts);
      Rng rng(seed);
      scenario.vms = sample_vm_fleet(vms, rng);
    } else if (args.get("scenario") == "planetlab") {
      scenario = make_planetlab_scenario(hosts, vms,
                                         steps > 0 ? steps : 2016, seed);
    } else if (args.get("scenario") == "google") {
      scenario = make_google_scenario(hosts, vms, steps > 0 ? steps : 2016,
                                      seed);
    } else {
      throw ConfigError("unknown --scenario (planetlab | google)");
    }

    // --- fabric (built before the policy: hier-megh shards by pod) ---
    ExperimentOptions options;
    options.steps = steps;
    if (args.get_double("oversubscription") > 0) {
      NetworkLinkConfig links;
      links.oversubscription = args.get_double("oversubscription");
      options.network = std::make_shared<FatTreeTopology>(
          FatTreeTopology::for_hosts(hosts, links));
      std::printf("fat-tree fabric: k = %d (%d ports), %gx oversubscribed\n",
                  options.network->k(), options.network->capacity(),
                  links.oversubscription);
    }

    // --- policy ---
    const bool is_megh = policy_name == "megh" || policy_name == "hier-megh";
    auto policy = make_policy(policy_name, seed,
                              args.get_bool("network-oblivious"),
                              options.network, args.get("checkpoint-load"),
                              args.get("serve-endpoint"));
    const double cap = args.get_double("cap");
    options.max_migration_fraction = cap >= 0 ? cap : (is_megh ? 0.02 : 0.0);

    // --- warm start ---
    Datacenter dc =
        build_datacenter(scenario, options.placement, options.placement_seed);
    SimulationConfig sim_config =
        default_sim_config(options.max_migration_fraction);
    sim_config.network = options.network;
    sim_config.jobs = static_cast<int>(args.get_int("jobs"));
    if (args.get("migration-model") == "precopy") {
      sim_config.migration_model =
          SimulationConfig::MigrationTimeModel::kPreCopy;
    } else {
      MEGH_REQUIRE(args.get("migration-model") == "flat",
                   "--migration-model must be flat or precopy");
    }
    // --- periodic checkpoints ---
    const int checkpoint_every =
        static_cast<int>(args.get_int("checkpoint-every"));
    const std::string checkpoint_save = args.get("checkpoint-save");
    if (checkpoint_every > 0) {
      MEGH_REQUIRE(!checkpoint_save.empty(),
                   "--checkpoint-every needs --checkpoint-save <path>");
      const auto* megh = dynamic_cast<HierarchicalMeghPolicy*>(policy.get());
      MEGH_REQUIRE(megh != nullptr,
                   "--checkpoint-every only applies to --policy megh | "
                   "hier-megh");
      sim_config.on_step = [=](const StepSnapshot& s) {
        if ((s.step + 1) % checkpoint_every != 0) return;
        save_megh_policy(*megh, checkpoint_save);
      };
    }

    Simulation sim(std::move(dc), scenario.trace, sim_config);
    if (!args.get("checkpoint-load").empty()) {
      std::printf("warm-start      : %s (loaded at begin())\n",
                  args.get("checkpoint-load").c_str());
    }

    const SimulationResult result = sim.run(*policy, steps);
    if (auto* served = dynamic_cast<serve::RemoteMeghPolicy*>(policy.get())) {
      served->flush();  // the last step's outcomes and cost
    }

    // --- report ---
    std::printf("\n%s on %s: %d PMs, %d VMs, %d steps\n",
                policy->name().c_str(), scenario.name.c_str(), hosts, vms,
                result.totals.steps);
    std::printf("total cost      : %.2f USD (energy %.2f + SLA %.2f)\n",
                result.totals.total_cost_usd, result.totals.energy_cost_usd,
                result.totals.sla_cost_usd);
    std::printf("migrations      : %lld", result.totals.migrations);
    if (options.network) {
      std::printf(" (%lld cross-pod)", result.totals.cross_pod_migrations);
    }
    std::printf("\nmean active PMs : %.1f\n", result.totals.mean_active_hosts);
    std::printf("decision latency: %.3f ms/step (max %.3f)\n",
                result.totals.mean_exec_ms, result.totals.max_exec_ms);
    const auto series = result.series("step_cost");
    if (const auto conv = convergence_step(series)) {
      std::printf("converged       : step %d (stable %.3f USD/step)\n", *conv,
                  tail_mean(series, *conv));
    }

    if (!args.get("series").empty()) {
      TimeSeries ts;
      for (const auto& s : result.steps) {
        ts.push("step_cost_usd", s.step_cost_usd);
        ts.push("energy_cost_usd", s.energy_cost_usd);
        ts.push("sla_cost_usd", s.sla_cost_usd);
        ts.push("migrations", s.migrations);
        ts.push("active_hosts", s.active_hosts);
        ts.push("exec_ms", s.exec_ms);
      }
      ts.write_csv(args.get("series"));
      std::printf("series          : wrote %s\n", args.get("series").c_str());
    }
    if (!args.get("checkpoint-save").empty()) {
      if (!args.get("serve-endpoint").empty()) {
        throw ConfigError(
            "--checkpoint-save does not apply to a served policy; ask the "
            "daemon instead: megh_ctl checkpoint --socket <path>");
      }
      if (const auto* megh =
              dynamic_cast<const HierarchicalMeghPolicy*>(policy.get())) {
        save_megh_policy(*megh, args.get("checkpoint-save"));
      } else {
        throw ConfigError(
            "--checkpoint-save only applies to --policy megh | hier-megh");
      }
      std::printf("checkpoint      : wrote %s\n",
                  args.get("checkpoint-save").c_str());
    }
    if (trace_sink != nullptr) {
      trace_sink->flush();
      std::printf("telemetry       : wrote %lld records to %s "
                  "(trace_summary --in %s)\n",
                  trace_sink->lines_written(), trace_sink->path().c_str(),
                  trace_sink->path().c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "megh_sim: %s\n", e.what());
    return 1;
  }
}
