// Micro-benchmark: a single decide() call per policy at growing fleet
// sizes — the per-step latency that Tables 2/3 and Figure 6 aggregate,
// measured in isolation with google-benchmark.
#include <benchmark/benchmark.h>

#include "baselines/madvm.hpp"
#include "baselines/mmt_policy.hpp"
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

}  // namespace
}  // namespace megh

BENCHMARK_MAIN();
