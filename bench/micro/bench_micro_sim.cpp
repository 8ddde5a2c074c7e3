// Micro-benchmarks for the simulation step loop (google-benchmark): the
// per-interval cost that Tables 2/3 aggregate and Figure 6 scales — the
// engine's accounting around the policy, and full end-to-end steps.
//
// BM_DatacenterAccounting is written against the oldest common Datacenter
// API so it builds on older trees; the sharded benchmarks below use
// SimulationConfig::jobs, whose jobs = 1 row is the serial baseline
// (bit-identical decisions, so the comparison is pure wall-clock).
//
//   * BM_DatacenterAccounting — one interval's engine-side accounting with
//     no policy at all: demand refresh, per-host utilization, overload
//     scan, power integration, active-host count. This is what the O(1)
//     cached-demand accounting accelerates.
//   * BM_SimStep — full Simulation::run steps under the Megh policy at the
//     paper's PlanetLab shape (m hosts, n = ceil(1.315 m) VMs; 800/1052 at
//     the top size). Time is per step, timed as perfbench times it: a step
//     runs from the end of the previous step (or of begin()) to its own
//     on_step hook, so begin() and setup are outside the timed interval.
//     Each iteration runs kStepsPerRun steps and reports their mean;
//     items/s is steps/s.
//   * BM_SimStepSharded — the pod-sharded step at datacenter scale: Megh on
//     a fat-tree fabric at {hosts, jobs} (2k and 10k hosts, 1–8 workers).
//     jobs = 1 is the serial baseline the speedup column divides by;
//     decisions are bit-identical at every jobs value, so only wall-clock
//     moves.
//   * BM_SimStepEngine100k — engine-only (NoMigration) steps at 100k hosts:
//     the accounting scale ceiling, where the per-pod shards are the only
//     thing between the step and a 100k-host serial scan.
//   * BM_MeghDecideSharded — the hierarchical two-level Megh at {hosts,
//     jobs}: per-pod learners decided AND updated inside the pod shards, so
//     the policy's decide/update work — the dominant serial remainder
//     behind the engine scans — rides the same worker pool. jobs = 1 is
//     the baseline; decisions are bit-identical at every jobs value
//     (tests/core/test_hierarchical_megh.cpp).
//   * BM_HierMegh100k — the headline: hierarchical Megh end-to-end (policy
//     included) at 100k hosts / 1M VMs, infeasible for the flat N×M
//     learner. Reports max_rss_mb (VmHWM) so the Σ_p O(N_p × M_p) memory
//     claim is a measured number, not an argument.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/simple_policies.hpp"
#include "core/hierarchical_megh.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/host_spec.hpp"
#include "sim/network.hpp"

namespace megh {
namespace {

int vms_for_hosts(int hosts) {
  // The paper's PlanetLab ratio: 1052 VMs on 800 PMs.
  return static_cast<int>(std::ceil(static_cast<double>(hosts) * 1052.0 /
                                    800.0));
}

void BM_DatacenterAccounting(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int vms = vms_for_hosts(hosts);
  const Scenario scenario = make_planetlab_scenario(hosts, vms, 16, 9);
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
  const CostConfig cost;
  std::vector<double> vm_util(static_cast<std::size_t>(dc.num_vms()));
  int step = 0;
  double sink = 0.0;
  for (auto _ : state) {
    for (int vm = 0; vm < dc.num_vms(); ++vm) {
      vm_util[static_cast<std::size_t>(vm)] = scenario.trace.at(vm, step);
    }
    dc.set_demands(vm_util);
    const std::vector<double> host_util = dc.all_host_utilization();
    int overloaded = 0;
    for (int h = 0; h < dc.num_hosts(); ++h) {
      if (!dc.is_active(h)) continue;
      if (dc.host_utilization(h) > cost.beta_overload) ++overloaded;
    }
    sink += datacenter_power_watts(dc);
    sink += host_util[0] + overloaded + dc.active_host_count();
    step = (step + 1) % scenario.trace.num_steps();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatacenterAccounting)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

constexpr int kStepsPerRun = 30;

/// Megh with a timestamp at the end of begin(), where step 0's interval
/// starts.
class BeginStampedMegh : public MeghPolicy {
 public:
  using MeghPolicy::MeghPolicy;
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override {
    MeghPolicy::begin(dc, cost, interval_s);
    last_step_end = std::chrono::steady_clock::now();
  }
  std::chrono::steady_clock::time_point last_step_end;
};

void BM_SimStep(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int vms = vms_for_hosts(hosts);
  const Scenario scenario =
      make_planetlab_scenario(hosts, vms, kStepsPerRun, 9);
  for (auto _ : state) {
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
    MeghConfig megh_config;
    megh_config.seed = 7;
    BeginStampedMegh policy(megh_config);
    double steps_s = 0.0;
    SimulationConfig config = default_sim_config(0.02);
    config.on_step = [&](const StepSnapshot&) {
      const auto now = std::chrono::steady_clock::now();
      steps_s += std::chrono::duration<double>(now - policy.last_step_end)
                     .count();
      policy.last_step_end = now;
    };
    Simulation sim(std::move(dc), scenario.trace, config);
    benchmark::DoNotOptimize(sim.run(policy, kStepsPerRun));
    state.SetIterationTime(steps_s / kStepsPerRun);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimStep)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimStepSharded(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int jobs = static_cast<int>(state.range(1));
  const int vms = vms_for_hosts(hosts);
  // Fewer steps per iteration at the big sizes: the measurement is per-step
  // anyway (items/s) and trace/datacenter setup is paused out.
  const int steps = hosts >= 10'000 ? 5 : kStepsPerRun;
  const Scenario scenario = make_planetlab_scenario(hosts, vms, steps, 9);
  SimulationConfig config = default_sim_config(0.02);
  config.network = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(hosts));
  config.jobs = jobs;
  for (auto _ : state) {
    state.PauseTiming();
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
    MeghConfig megh_config;
    megh_config.seed = 7;
    MeghPolicy policy(megh_config);
    Simulation sim(std::move(dc), scenario.trace, config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run(policy, steps));
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_SimStepSharded)
    ->Args({2'000, 1})
    ->Args({2'000, 2})
    ->Args({2'000, 4})
    ->Args({2'000, 8})
    ->Args({10'000, 1})
    ->Args({10'000, 2})
    ->Args({10'000, 4})
    ->Args({10'000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_SimStepEngine100k(benchmark::State& state) {
  const int hosts = 100'000;
  const int jobs = static_cast<int>(state.range(0));
  const int vms = vms_for_hosts(hosts);
  const int steps = 3;
  const Scenario scenario = make_planetlab_scenario(hosts, vms, steps, 9);
  SimulationConfig config = default_sim_config(0.0);
  config.network = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(hosts));
  config.jobs = jobs;
  for (auto _ : state) {
    state.PauseTiming();
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
    NoMigrationPolicy policy;
    Simulation sim(std::move(dc), scenario.trace, config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run(policy, steps));
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_SimStepEngine100k)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Peak resident set (VmHWM) in MiB; 0 where /proc is unavailable.
double max_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void BM_MeghDecideSharded(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int jobs = static_cast<int>(state.range(1));
  const int vms = vms_for_hosts(hosts);
  const int steps = hosts >= 10'000 ? 5 : kStepsPerRun;
  const Scenario scenario = make_planetlab_scenario(hosts, vms, steps, 9);
  SimulationConfig config = default_sim_config(0.02);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(hosts));
  config.network = fabric;
  config.jobs = jobs;
  for (auto _ : state) {
    state.PauseTiming();
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
    HierarchicalMeghConfig hier_config;
    hier_config.base.seed = 7;
    hier_config.network = fabric;
    HierarchicalMeghPolicy policy(hier_config);
    Simulation sim(std::move(dc), scenario.trace, config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run(policy, steps));
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_MeghDecideSharded)
    ->Args({2'000, 1})
    ->Args({2'000, 2})
    ->Args({2'000, 4})
    ->Args({2'000, 8})
    ->Args({10'000, 1})
    ->Args({10'000, 2})
    ->Args({10'000, 4})
    ->Args({10'000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_HierMegh100k(benchmark::State& state) {
  const int hosts = 100'000;
  const int vms = 1'000'000;  // 10 VMs/PM: the cluster-scale shape
  const int jobs = static_cast<int>(state.range(0));
  const int steps = 3;
  Scenario scenario = make_planetlab_scenario(hosts, vms, steps, 9);
  // The paper's 4-GB ProLiants hold ~1.3 of its VMs each; a 1M-VM fleet on
  // 100k PMs needs cluster-class nodes. Scale the host capacity 16x (64 GB
  // RAM, 10 GbE) and keep the VM specs and traces paper-shaped.
  for (HostSpec& h : scenario.hosts) {
    h.mips *= 16.0;
    h.ram_mb *= 16.0;
    h.bw_mbps *= 10.0;
  }
  SimulationConfig config = default_sim_config(0.02);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(hosts));
  config.network = fabric;
  config.jobs = jobs;
  std::int64_t total_dim = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
    HierarchicalMeghConfig hier_config;
    hier_config.base.seed = 7;
    hier_config.network = fabric;
    HierarchicalMeghPolicy policy(hier_config);
    Simulation sim(std::move(dc), scenario.trace, config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run(policy, steps));
    state.PauseTiming();
    total_dim = 0;
    for (int p = 0; p < policy.num_pods(); ++p) {
      total_dim += policy.pod_learner(p).dim();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * steps);
  state.counters["max_rss_mb"] = max_rss_mb();
  state.counters["sum_pod_dim"] = static_cast<double>(total_dim);
}
BENCHMARK(BM_HierMegh100k)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace megh

BENCHMARK_MAIN();
