// Micro-benchmarks for the megh_serve daemon's hot path (google-benchmark):
// the per-step cost a served simulation pays on top of running the policy
// in-process, and the recovery replay rate that bounds restart time.
//
//   * BM_ServeDecide/{hosts}/{fsync} — one steady-state served step against
//     an in-process MeghServer over LocalTransport: one Decide round trip
//     carrying the previous step's outcomes (decode → validate → WAL write
//     → observe + decide → encode). fsync=1 adds the record's fsync, which
//     runs on the WAL syncer thread during the observe + decide and is
//     waited for before the ack: the durability price of crash-exact
//     recovery is whatever of it the apply does not hide. fsync=0
//     isolates the protocol + journaling CPU cost. items/s is served
//     steps/s; wal_bytes_per_step is the journal growth rate.
//   * BM_ServeCheckpoint/{hosts} — one compaction: atomic learner snapshot
//     write + WAL rotation + stale-segment GC, on a server that has taken
//     a handful of steps since the last snapshot.
//   * BM_ServeRecover/{steps} — cold-start recovery of a directory holding
//     one snapshot-free WAL with `steps` served steps (one record each, plus
//     the final flush): MeghServer construction in read-only mode replays
//     the full tail. items/s is replayed WAL records/s.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/host_spec.hpp"
#include "sim/placement.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh::serve {
namespace {

int vms_for_hosts(int hosts) {
  // The paper's PlanetLab ratio: 1052 VMs on 800 PMs.
  return (hosts * 1052 + 799) / 800;
}

std::filesystem::path fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("megh_bench_serve_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

InitRequest make_init(int hosts, int vms) {
  InitRequest req;
  req.interval_s = 300.0;
  req.config.seed = 7;
  req.hosts = standard_host_fleet(hosts);
  Rng rng(5);
  req.vms = sample_vm_fleet(vms, rng);
  // Capacity-respecting placement via the engine's own placer.
  Datacenter dc(req.hosts, req.vms);
  Rng prng(2);
  place_initial(dc, InitialPlacement::kRandom, prng);
  req.host_vms.resize(static_cast<std::size_t>(hosts));
  for (int v = 0; v < vms; ++v) {
    req.host_vms[static_cast<std::size_t>(dc.host_of(v))].push_back(v);
  }
  return req;
}

/// Mutable request state threaded through drive_steps so the placement we
/// report tracks the actions the served policy emits.
DecideRequest make_decide_scratch(const InitRequest& init) {
  DecideRequest req;
  const int vms = static_cast<int>(init.vms.size());
  req.vm_util.resize(static_cast<std::size_t>(vms));
  req.host_util.assign(init.hosts.size(), 0.5);
  req.host_of.resize(static_cast<std::size_t>(vms));
  for (std::size_t h = 0; h < init.host_vms.size(); ++h) {
    for (const int v : init.host_vms[h]) {
      req.host_of[static_cast<std::size_t>(v)] = static_cast<int>(h);
    }
  }
  return req;
}

/// Drive `steps` steady-state steps through `client`, starting at
/// `req.step`: one Decide per step, carrying the previous step's outcomes
/// in `req.carried`. Emitted actions are acknowledged as aborted — there
/// is no real engine here to arbitrate fit, and an aborted outcome keeps
/// the placement fixed while still exercising the full decode → journal →
/// learner-update path.
void drive_steps(ServeClient& client, const TraceTable& trace,
                 DecideRequest& req, int steps) {
  const int vms = static_cast<int>(req.vm_util.size());
  for (int i = 0; i < steps; ++i, ++req.step) {
    for (int v = 0; v < vms; ++v) {
      req.vm_util[static_cast<std::size_t>(v)] =
          trace.at(v, req.step % trace.num_steps());
    }
    req.last_step_cost = 1.0;
    const DecideResponse resp = client.decide(req);
    ObserveRequest& obs = req.carried.emplace();
    obs.step_cost = 1.0;
    for (const MigrationAction& a : resp.actions) {
      MigrationOutcome o;
      o.vm = a.vm;
      o.target_host = a.target_host;
      o.verdict = MigrationVerdict::kAborted;
      obs.outcomes.push_back(o);
    }
  }
}

/// Send the observation the last driven step left pending (one Observe).
void flush(ServeClient& client, DecideRequest& req) {
  if (!req.carried) return;
  benchmark::DoNotOptimize(client.observe(*req.carried));
  req.carried.reset();
}

void BM_ServeDecide(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const bool fsync = state.range(1) != 0;
  const int vms = vms_for_hosts(hosts);
  const auto dir = fresh_dir("decide_" + std::to_string(hosts) +
                             (fsync ? "_sync" : "_nosync"));
  ServeOptions options;
  options.dir = dir;
  options.fsync = fsync;
  options.compact_every = 0;  // journaling cost only; no step compacts
  MeghServer server(options);
  ServeClient client(std::make_shared<LocalTransport>(server));
  const InitRequest init = make_init(hosts, vms);
  client.init(init);
  PlanetLabSynthConfig tc;
  tc.num_vms = vms;
  tc.num_steps = 64;
  const TraceTable trace = generate_planetlab(tc);
  DecideRequest req = make_decide_scratch(init);
  for (auto _ : state) {
    drive_steps(client, trace, req, 1);
  }
  state.SetItemsProcessed(state.iterations());
  const WalStatusResponse ws = client.wal_status();
  state.counters["wal_bytes_per_step"] =
      req.step > 0 ? static_cast<double>(ws.wal_bytes) / req.step : 0.0;
  flush(client, req);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ServeDecide)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({800, 0})
    ->Args({800, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_ServeCheckpoint(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int vms = vms_for_hosts(hosts);
  const auto dir = fresh_dir("ckpt_" + std::to_string(hosts));
  ServeOptions options;
  options.dir = dir;
  options.fsync = true;
  options.compact_every = 0;  // only the timed Checkpoint compacts
  MeghServer server(options);
  ServeClient client(std::make_shared<LocalTransport>(server));
  const InitRequest init = make_init(hosts, vms);
  client.init(init);
  PlanetLabSynthConfig tc;
  tc.num_vms = vms;
  tc.num_steps = 64;
  const TraceTable trace = generate_planetlab(tc);
  DecideRequest req = make_decide_scratch(init);
  for (auto _ : state) {
    state.PauseTiming();
    drive_steps(client, trace, req, 4);
    state.ResumeTiming();
    benchmark::DoNotOptimize(client.checkpoint());
  }
  flush(client, req);
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ServeCheckpoint)
    ->Arg(100)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_ServeRecover(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  const int hosts = 100;
  const int vms = vms_for_hosts(hosts);
  const auto dir = fresh_dir("recover_" + std::to_string(steps));
  {
    ServeOptions options;
    options.dir = dir;
    options.fsync = false;
    options.compact_every = 0;
    MeghServer server(options);
    ServeClient client(std::make_shared<LocalTransport>(server));
    const InitRequest init = make_init(hosts, vms);
    client.init(init);
    PlanetLabSynthConfig tc;
    tc.num_vms = vms;
    tc.num_steps = 64;
    const TraceTable trace = generate_planetlab(tc);
    DecideRequest req = make_decide_scratch(init);
    drive_steps(client, trace, req, steps);
    flush(client, req);
  }
  ServeOptions recover_options;
  recover_options.dir = dir;
  recover_options.read_only = true;  // replay without opening a new segment
  for (auto _ : state) {
    MeghServer recovered(recover_options);
    benchmark::DoNotOptimize(recovered.recovered_seq());
  }
  // One WAL record per served step, plus the flush.
  state.SetItemsProcessed(state.iterations() * (steps + 1));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ServeRecover)
    ->Arg(128)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace megh::serve

BENCHMARK_MAIN();
