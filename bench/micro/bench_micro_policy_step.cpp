// Micro-benchmark: a single decide() call per policy at growing fleet
// sizes — the per-step latency that Tables 2/3 and Figure 6 aggregate,
// measured in isolation with google-benchmark — and one Megh candidate
// generation call alone (BM_GenerateCandidates).
#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/madvm.hpp"
#include "baselines/mmt_policy.hpp"
#include "core/candidates.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"

namespace megh {
namespace {

struct Setup {
  Scenario scenario;
  Datacenter dc;
  std::vector<double> vm_util;
  std::vector<double> host_util;
  SimulationConfig config;

  explicit Setup(int size)
      : scenario(make_planetlab_scenario(size, size, 4, 9)),
        dc(build_datacenter(scenario, InitialPlacement::kRandom, 2)),
        config(default_sim_config(0.02)) {
    vm_util.resize(static_cast<std::size_t>(dc.num_vms()));
    for (int vm = 0; vm < dc.num_vms(); ++vm) {
      vm_util[static_cast<std::size_t>(vm)] = scenario.trace.at(vm, 0);
    }
    dc.set_demands(vm_util);
    host_util = dc.all_host_utilization();
  }

  StepObservation observation() const {
    StepObservation obs;
    obs.step = 1;
    obs.interval_s = 300.0;
    obs.dc = &dc;
    obs.vm_util = vm_util;
    obs.host_util = host_util;
    obs.last_step_cost = 1.0;
    obs.cost = &config.cost;
    return obs;
  }
};

template <typename MakePolicy>
void run_decide_benchmark(benchmark::State& state, MakePolicy make_policy) {
  Setup setup(static_cast<int>(state.range(0)));
  auto policy = make_policy();
  policy->begin(setup.dc, setup.config.cost, 300.0);
  const StepObservation obs = setup.observation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->decide(obs));
    policy->observe_cost(1.0);
  }
}

void BM_MeghDecide(benchmark::State& state) {
  run_decide_benchmark(state, [] {
    return std::make_unique<MeghPolicy>(MeghConfig{});
  });
}
BENCHMARK(BM_MeghDecide)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void BM_ThrMmtDecide(benchmark::State& state) {
  run_decide_benchmark(state, [] { return make_thr_mmt(); });
}
BENCHMARK(BM_ThrMmtDecide)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void BM_MadVmDecide(benchmark::State& state) {
  run_decide_benchmark(state, [] { return std::make_unique<MadVmPolicy>(); });
}
BENCHMARK(BM_MadVmDecide)->Arg(100)->Arg(200);

/// One generate_candidates call per iteration, with the scratch and Rng
/// carried across iterations as a policy carries them across steps.
///   * Arg 0: a flat fleet call at the paper's PlanetLab shape (800 PMs,
///     1052 VMs), no fabric — flat Megh's call.
///   * Arg 1: one pod domain of a 10k-host fleet (13150 VMs) on a 4:1
///     oversubscribed fat-tree — one of hierarchical Megh's per-pod calls.
void BM_GenerateCandidates(benchmark::State& state) {
  const bool pod_domain = state.range(0) != 0;
  const int hosts = pod_domain ? 10'000 : 800;
  const int vms = pod_domain ? 13'150 : 1'052;
  const Scenario scenario = make_planetlab_scenario(hosts, vms, 4, 9);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
  std::vector<double> vm_util(static_cast<std::size_t>(vms));
  for (int vm = 0; vm < vms; ++vm) {
    vm_util[static_cast<std::size_t>(vm)] = scenario.trace.at(vm, 0);
  }
  dc.set_demands(vm_util);
  const std::vector<double> host_util = dc.all_host_utilization();
  const ActionBasis basis(vms, hosts);
  const double beta = default_sim_config(0.02).cost.beta_overload;

  std::unique_ptr<FatTreeTopology> fabric;
  CandidateDomain domain;
  std::vector<int> pod_vms;
  std::vector<std::int32_t> vm_slot;
  if (pod_domain) {
    NetworkLinkConfig links;
    links.oversubscription = 4.0;
    fabric = std::make_unique<FatTreeTopology>(
        FatTreeTopology::for_hosts(hosts, links));
    // Pod 0: its hosts and, ascending, the VMs placed on them.
    domain.host_begin = 0;
    domain.host_end = fabric->hosts_per_pod();
    vm_slot.assign(static_cast<std::size_t>(vms), -1);
    for (int vm = 0; vm < vms; ++vm) {
      if (dc.host_of(vm) < domain.host_end) {
        vm_slot[static_cast<std::size_t>(vm)] =
            static_cast<std::int32_t>(pod_vms.size());
        pod_vms.push_back(vm);
      }
    }
    domain.vms = pod_vms;
    domain.vm_slot = vm_slot;
    domain.slot_capacity = static_cast<int>(pod_vms.size());
  }

  const CandidateConfig config;
  Rng rng(7);
  CandidateScratch scratch;
  for (auto _ : state) {
    generate_candidates(dc, host_util, beta, basis, config, rng, scratch,
                        fabric.get(), nullptr,
                        pod_domain ? &domain : nullptr);
    benchmark::DoNotOptimize(scratch.candidates.data());
    benchmark::ClobberMemory();
  }
  state.counters["candidates"] =
      static_cast<double>(scratch.candidates.size());
}
BENCHMARK(BM_GenerateCandidates)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("pod_domain")
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace megh

BENCHMARK_MAIN();
