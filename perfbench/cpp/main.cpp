// perfbench — the Megh benchmark (README.md has the metric definitions).
//
//   perfbench --workload planetlab-flat-800 --seed 1 --seconds 10 --trace 0
//             --daemon <megh_serve binary> --scratch <dir>
//
// A run repeats whole simulations of one workload ("rounds") closed-loop
// for --seconds: each round re-does its set-up (trace synthesis, placement,
// policy construction, begin(), and on the served workload a fresh daemon),
// then runs every step, the next starting only when the previous one has
// finished. Rounds cycle through kInputSets input sets derived from --seed,
// and a run stops only after whole cycles. --trace 0 reports the end-to-end
// metrics; --trace 1 alternates untraced, span-traced and
// telemetry-at-phases rounds and reports the per-layer metrics. Every run
// also checks the outputs: each round's per-step decision digest must match
// the first round on the same input set, the served rounds must match
// in-process reference rounds, and the jobs-4 hierarchical rounds jobs-1
// reference rounds. The last line of stdout is one JSON object.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mmt_policy.hpp"
#include "common/args.hpp"
#include "common/error.hpp"
#include "core/hierarchical_megh.hpp"
#include "core/megh_policy.hpp"
#include "daemon.hpp"
#include "harness/scenario.hpp"
#include "metrics/percentile.hpp"
#include "seams.hpp"
#include "serve/socket.hpp"
#include "sim/simulation.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

enum class Kind { kFlatMegh, kHierMegh, kServedMegh, kThrMmt };

struct Workload {
  const char* name;
  Kind kind;
  int hosts;
  int vms;
  int steps;  // 5-minute intervals per round
  double oversubscription;  // fat-tree fabric when > 0
  int jobs;
};

// PlanetLab fleets keep the paper's 1052 VMs : 800 PMs ratio.
constexpr Workload kWorkloads[] = {
    {"planetlab-flat-800", Kind::kFlatMegh, 800, 1052, 2016, 0.0, 1},
    {"fattree-hier-10k", Kind::kHierMegh, 10000, 13150, 288, 4.0, 4},
    {"served-flat-800", Kind::kServedMegh, 800, 1052, 2016, 0.0, 1},
};

/// Input sets per run, and so the least number of rounds. The simulated
/// totals are means over the sets, so one trace's luck moves them less.
constexpr int kInputSets = 4;
/// WAL records between daemon compactions: about one per served round.
constexpr int kCompactEvery = 3000;

enum class Mode { kPlain, kSpans, kPhases };

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::filesystem::path scratch;
  int nproc = 1;
};

struct Round {
  int set = 0;
  bool complete = false;
  int planned = 0;
  std::vector<double> step_ms;
  std::vector<std::uint64_t> digest;
  double setup_s = 0.0;
  double total_cost_usd = 0.0;
  long long migrations = 0;
  long long requested = 0;
  long long applied = 0;
  megh::PolicyStats final_stats;
  double pod_dim_sum = 0.0;
  std::vector<double> shadow_counts;
  std::vector<Span> spans;
  // Served rounds: read from the daemon before shutting it down.
  double daemon_rss_mb = 0.0;
  double compactions = 0.0;
  double wal_bytes_per_step = 0.0;
  double request_bytes_per_step = 0.0;
};

bool is_megh(Kind kind) { return kind != Kind::kThrMmt; }

template <typename F>
auto timed(Tracer& tracer, const char* name, F&& f) {
  ScopedSpan span(tracer, name, -1);
  return f();
}

double stat_or_zero(const megh::PolicyStats& stats, const char* name) {
  const megh::StatKey key = megh::StatKey::find(name);
  const double* v = key.valid() ? stats.find(key) : nullptr;
  return v != nullptr ? *v : 0.0;
}

double find_entry(const std::vector<megh::serve::StatEntry>& entries,
                  const char* name) {
  for (const auto& e : entries) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

/// Input set 0 is --seed itself, as in the workload definitions.
std::uint64_t input_seed(const Options& opt, int set) {
  return opt.seed + 1000 * static_cast<std::uint64_t>(set);
}

/// One whole simulation of `w` on input set `set`, run as `kind` at `jobs`
/// workers.
Round run_round(const Workload& w, Kind kind, int jobs, Mode mode,
                const Options& opt, int set, int index) {
  Round r;
  r.set = set;
  r.planned = w.steps;
  const std::uint64_t seed = input_seed(opt, set);
  Tracer tracer(mode == Mode::kSpans);
  megh::Telemetry::instance().configure(
      nullptr,
      mode == Mode::kPhases ? megh::TraceLevel::kPhases : megh::TraceLevel::kOff);
  if (kind == Kind::kServedMegh) {
    // Start every served round with no dirty data queued on the scratch
    // file system (earlier rounds' journals), so one round's fsyncs do not
    // pay for another's writeback. Outside the timed set-up.
    const int fd = ::open(opt.scratch.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }
  const std::int64_t t0 = now_ns();
  try {
    const megh::Scenario scenario = timed(tracer, "trace.synth", [&] {
      return megh::make_planetlab_scenario(w.hosts, w.vms, w.steps, seed);
    });
    megh::Datacenter dc = timed(tracer, "harness.placement", [&] {
      return megh::build_datacenter(scenario, megh::InitialPlacement::kRandom,
                                    seed + 1);
    });
    std::shared_ptr<const megh::FatTreeTopology> network;
    if (w.oversubscription > 0) {
      megh::NetworkLinkConfig links;
      links.oversubscription = w.oversubscription;
      network = std::make_shared<const megh::FatTreeTopology>(
          megh::FatTreeTopology::for_hosts(w.hosts, links));
    }
    megh::SimulationConfig config =
        megh::default_sim_config(is_megh(kind) ? 0.02 : 0.0);
    config.network = network;
    config.jobs = jobs;

    megh::MeghConfig megh_config;
    megh_config.seed = seed + 2;
    std::unique_ptr<Daemon> daemon;
    std::shared_ptr<TimedTransport> transport;
    std::unique_ptr<megh::MigrationPolicy> policy;
    if (kind == Kind::kServedMegh) {
      daemon = timed(tracer, "serve.spawn", [&] {
        return std::make_unique<Daemon>(
            opt.daemon,
            opt.scratch / ("serve-" + std::to_string(::getpid()) + "-" +
                           std::to_string(index)),
            kCompactEvery);
      });
      // The transport retries its connect until the daemon listens, for up
      // to its 5 s connect timeout.
      transport = timed(tracer, "serve.connect", [&] {
        return std::make_shared<TimedTransport>(
            std::make_unique<megh::serve::SocketTransport>(daemon->socket()),
            tracer);
      });
    }
    {
      ScopedSpan span(tracer, "policy.construct", -1);
      switch (kind) {
        case Kind::kFlatMegh:
          policy = std::make_unique<megh::MeghPolicy>(megh_config);
          break;
        case Kind::kHierMegh: {
          megh::HierarchicalMeghConfig hier;
          hier.base = megh_config;
          hier.network = network;
          policy = std::make_unique<megh::HierarchicalMeghPolicy>(hier);
          break;
        }
        case Kind::kServedMegh:
          policy = std::make_unique<megh::serve::RemoteMeghPolicy>(
              transport, megh_config, network);
          break;
        case Kind::kThrMmt:
          policy = megh::make_thr_mmt(0.7, seed + 2);
          break;
      }
    }

    TimedPolicy timed_policy(
        *policy, tracer,
        is_megh(kind) ? std::optional<std::uint64_t>(seed + 3)
                      : std::nullopt);
    config.on_step = [&](const megh::StepSnapshot& s) {
      timed_policy.end_step(s.step);
    };
    megh::Simulation sim(std::move(dc), scenario.trace, config);
    megh::SimulationResult result;
    try {
      result = sim.run(timed_policy, w.steps);
      tracer.discard_last_open();  // the step after the last one
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "perfbench: %s round %d (input set %d) failed at step "
                   "%zu: %s\n",
                   w.name, index, set, timed_policy.step_ms().size(), e.what());
    }
    r.step_ms = timed_policy.step_ms();
    r.digest = timed_policy.step_digest();
    r.complete = static_cast<int>(r.step_ms.size()) == w.steps;
    r.setup_s = static_cast<double>(timed_policy.begin_end_ns() - t0) / 1e9;
    r.requested = timed_policy.requested();
    r.applied = timed_policy.applied();
    r.shadow_counts = timed_policy.shadow_counts();
    if (r.complete) {
      r.total_cost_usd = result.totals.total_cost_usd;
      r.migrations = result.totals.migrations;
      r.final_stats = result.steps.back().policy_stats;
    }
    if (const auto* hier =
            dynamic_cast<const megh::HierarchicalMeghPolicy*>(policy.get())) {
      for (int p = 0; p < hier->num_pods(); ++p) {
        r.pod_dim_sum += static_cast<double>(hier->pod_slot_capacity(p)) *
                         (hier->pod_host_end(p) - hier->pod_host_begin(p));
      }
    } else if (is_megh(kind)) {
      r.pod_dim_sum = static_cast<double>(w.vms) * w.hosts;
    }
    if (daemon != nullptr) {
      megh::serve::ServeClient client(transport);
      r.compactions = find_entry(client.stats(), "serve.compactions");
      const megh::serve::WalStatusResponse wal = client.wal_status();
      // Compaction truncates the journal; the tail since the last one
      // still gives the bytes per record (two records per step).
      if (wal.records_since_compaction > 0) {
        r.wal_bytes_per_step = 2.0 * static_cast<double>(wal.wal_bytes) /
                               static_cast<double>(wal.records_since_compaction);
      }
      r.request_bytes_per_step =
          static_cast<double>(transport->step_request_bytes()) / w.steps;
      r.daemon_rss_mb = daemon->peak_rss_mb();
      client.shutdown();
      if (daemon->wait_exit(5000)) {
        std::filesystem::remove_all(daemon->dir());
      } else {
        std::fprintf(stderr, "perfbench: daemon did not exit cleanly\n");
        r.complete = false;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s round %d (input set %d) failed: %s\n",
                 w.name, index, set, e.what());
    r.complete = false;
  }
  if (r.complete && tracer.enabled()) r.spans = tracer.spans();
  megh::Telemetry::instance().configure(nullptr, megh::TraceLevel::kOff);
  return r;
}

// --- span attribution ------------------------------------------------------

struct Attribution {
  std::vector<double> step_net_ms;  // wall minus the benchmark's own work
  std::vector<double> sim_self_ms;
  std::vector<double> decide_ms;
  std::vector<double> observe_us;
  std::vector<double> residual_ms;
  std::vector<double> candidates_ms;
  std::vector<double> serve_decide_us;
  std::vector<double> serve_observe_us;
  std::vector<double> synth_s, placement_s, begin_s, init_ms;
  long long unbalanced_steps = 0;
};

bool named(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

/// Splits each step's wall time into self times: the engine's own
/// (sim.self: the step minus the callbacks inside it), each policy callback
/// minus its serve round trips, the round trips, and the benchmark's own
/// work inside the step (bench.shadow_candidates), which is the named
/// residual. A step whose self times are negative or do not sum to its
/// wall time counts as unbalanced.
void attribute(const std::vector<Span>& spans, Attribution& out) {
  const std::size_t n = spans.size();
  std::vector<std::int64_t> child_ns(n, 0);
  int max_step = -1;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    max_step = std::max(max_step, s.step);
  }
  const std::size_t steps = static_cast<std::size_t>(max_step + 1);
  std::vector<std::int64_t> wall(steps, 0), self_sum(steps, 0),
      observe(steps, 0), bench(steps, 0);
  std::vector<std::uint8_t> bad(steps, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const std::int64_t self = dur - child_ns[i];
    const double ms = static_cast<double>(dur) / 1e6;
    if (s.step < 0) {
      if (named(s, "trace.synth")) out.synth_s.push_back(ms / 1e3);
      if (named(s, "harness.placement")) out.placement_s.push_back(ms / 1e3);
      if (named(s, "policy.begin")) out.begin_s.push_back(ms / 1e3);
      if (named(s, "serve.init")) out.init_ms.push_back(ms);
      continue;
    }
    const std::size_t t = static_cast<std::size_t>(s.step);
    self_sum[t] += self;
    if (self < 0 || s.end_ns < 0) bad[t] = 1;
    if (named(s, "sim.step")) {
      wall[t] = dur;
      out.sim_self_ms.push_back(static_cast<double>(self) / 1e6);
    } else if (named(s, "policy.decide")) {
      out.decide_ms.push_back(ms);
    } else if (named(s, "policy.observe_outcomes") ||
               named(s, "policy.observe_cost")) {
      observe[t] += dur;
    } else if (named(s, "bench.shadow_candidates")) {
      bench[t] += dur;
      out.candidates_ms.push_back(ms);
    } else if (named(s, "serve.decide")) {
      out.serve_decide_us.push_back(ms * 1e3);
    } else if (named(s, "serve.observe")) {
      out.serve_observe_us.push_back(ms * 1e3);
    }
  }
  for (std::size_t t = 0; t < steps; ++t) {
    if (bad[t] != 0 || self_sum[t] != wall[t]) ++out.unbalanced_steps;
    out.step_net_ms.push_back(static_cast<double>(wall[t] - bench[t]) / 1e6);
    out.observe_us.push_back(static_cast<double>(observe[t]) / 1e3);
    out.residual_ms.push_back(static_cast<double>(bench[t]) / 1e6);
  }
}

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // human-readable context, not part of the JSON
};

struct Report {
  std::vector<Metric> metrics;
  long long attempted = 0;
  long long failed = 0;
  std::uint64_t digest = 0;
  std::string notes;
};

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : megh::percentile(xs, p);
}

double median(const std::vector<double>& xs) { return pct(xs, 50.0); }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

void write_spans(const std::filesystem::path& path, const char* workload,
                 const std::vector<Span>& spans, int round) {
  if (spans.empty()) return;
  std::ofstream out(path, std::ios::app);
  for (const Span& s : spans) {
    out << "{\"workload\": \"" << workload << "\", \"round\": " << round
        << ", \"name\": \"" << s.name << "\", \"step\": " << s.step
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
}

Report run_workload(const Workload& w, const Options& opt,
                    const std::filesystem::path& spans_path) {
  const int jobs = std::min(w.jobs, opt.nproc);
  const std::vector<Mode> cycle =
      opt.trace ? std::vector<Mode>{Mode::kPlain, Mode::kSpans, Mode::kPhases}
                : std::vector<Mode>{Mode::kPlain};
  std::vector<Round> rounds;
  std::vector<Mode> modes;
  // The peak of this workload's measured rounds only: not of workloads run
  // before it in the same process, nor of the reference rounds after.
  reset_peak_rss();
  const std::int64_t start = now_ns();
  double last_round_s = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (i % kInputSets == 0 && i > 0 && elapsed + last_round_s > opt.seconds) {
      break;
    }
    const std::int64_t round_start = now_ns();
    modes.push_back(cycle[static_cast<std::size_t>(i) % cycle.size()]);
    rounds.push_back(
        run_round(w, w.kind, jobs, modes.back(), opt, i % kInputSets, i));
    last_round_s = static_cast<double>(now_ns() - round_start) / 1e9;
  }
  const double peak_rss_self = peak_rss_mb("self");
  // Reference legs, outside the measured time: the served policy must
  // decide exactly as the in-process one, the sharded step exactly as the
  // serial one, on every input set.
  std::vector<Round> references;
  for (int set = 0; set < kInputSets; ++set) {
    if (w.kind == Kind::kServedMegh) {
      references.push_back(
          run_round(w, Kind::kFlatMegh, 1, Mode::kPlain, opt, set, -1));
    } else if (w.kind == Kind::kHierMegh) {
      references.push_back(
          run_round(w, Kind::kHierMegh, 1, Mode::kPlain, opt, set, -1));
    }
  }
  // The baselines layer, traced on this workload's inputs: THR-MMT
  // deciding the same fleet and trace.
  std::optional<Round> thr_mmt;
  if (opt.trace && w.kind == Kind::kFlatMegh) {
    thr_mmt = run_round(w, Kind::kThrMmt, 1, Mode::kSpans, opt, 0, -2);
  }

  // --- correctness: failed steps -------------------------------------------
  // Equal per-step digests mean equal applied migrations and equal step
  // costs at every step, hence also equal simulated totals.
  Report rep;
  std::vector<const Round*> baseline(kInputSets, nullptr);
  for (const Round& r : rounds) {
    const Round*& b = baseline[static_cast<std::size_t>(r.set)];
    if (r.complete && b == nullptr) b = &r;
  }
  std::vector<const Round*> all;
  for (const Round& r : rounds) all.push_back(&r);
  for (const Round& r : references) all.push_back(&r);
  for (const Round* r : all) {
    rep.attempted += r->planned;
    long long failed = r->planned - static_cast<long long>(r->digest.size());
    if (const Round* b = baseline[static_cast<std::size_t>(r->set)]) {
      for (std::size_t t = 0; t < r->digest.size(); ++t) {
        if (r->digest[t] != b->digest[t]) ++failed;
      }
    }
    rep.failed += failed;
  }
  // The run's digest: every step of every input set, in set order. It
  // repeats exactly for a seed.
  rep.digest = kDigestSeed;
  double cost_sum = 0.0, migrations_sum = 0.0, complete_sets = 0.0;
  for (const Round* b : baseline) {
    if (b == nullptr) continue;
    for (std::uint64_t d : b->digest) rep.digest = digest_mix(rep.digest, d);
    cost_sum += b->total_cost_usd;
    migrations_sum += static_cast<double>(b->migrations);
    complete_sets += 1.0;
  }
  Attribution attr, thr_attr;
  if (thr_mmt) {
    rep.attempted += thr_mmt->planned;
    rep.failed +=
        thr_mmt->planned - static_cast<long long>(thr_mmt->digest.size());
    attribute(thr_mmt->spans, thr_attr);
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    attribute(rounds[i].spans, attr);
    write_spans(spans_path, w.name, rounds[i].spans, static_cast<int>(i));
  }
  rep.failed += attr.unbalanced_steps;

  // --- end-to-end metrics (untraced rounds) -----------------------------------
  std::vector<double> plain_ms, phases_ms, setups;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (modes[i] == Mode::kPlain) append(plain_ms, rounds[i].step_ms);
    if (modes[i] == Mode::kPhases) append(phases_ms, rounds[i].step_ms);
    if (modes[i] == Mode::kPlain && rounds[i].complete) {
      setups.push_back(rounds[i].setup_s);
    }
  }
  // Median step and throughput of each complete untraced round. The rounds
  // on one input set repeat the same work exactly and a shared host only
  // ever adds time, in spells of seconds to minutes, so each set keeps its
  // least disturbed round; then the mean over the sets, so every set weighs
  // the same.
  std::vector<double> best_p50(kInputSets, 0.0), best_rate(kInputSets, 0.0);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    if (modes[i] != Mode::kPlain || !r.complete) continue;
    double total_ms = 0.0;
    for (double ms : r.step_ms) total_ms += ms;
    const double p50 = median(r.step_ms);
    const double rate = 1e3 * static_cast<double>(r.step_ms.size()) / total_ms;
    std::fprintf(stderr,
                 "perfbench: %s round %zu (input set %d): step p50 %.4f ms, "
                 "%.1f steps/s, setup %.4f s\n",
                 w.name, i, r.set, p50, rate, r.setup_s);
    const auto s = static_cast<std::size_t>(r.set);
    best_p50[s] = best_p50[s] > 0.0 ? std::min(best_p50[s], p50) : p50;
    best_rate[s] = std::max(best_rate[s], rate);
  }
  double step_p50 = 0.0, steps_per_s = 0.0, timed_sets = 0.0;
  for (std::size_t s = 0; s < best_p50.size(); ++s) {
    if (best_p50[s] <= 0.0) continue;
    step_p50 += best_p50[s];
    steps_per_s += best_rate[s];
    timed_sets += 1.0;
  }
  if (timed_sets > 0) {
    step_p50 /= timed_sets;
    steps_per_s /= timed_sets;
  }
  double daemon_rss = 0.0;
  for (const Round& r : rounds) daemon_rss = std::max(daemon_rss, r.daemon_rss_mb);
  char samples[128];
  std::snprintf(samples, sizeof samples,
                "best round per input set; all %zu steps: p50 %.4g, p99 %.4g ms",
                plain_ms.size(), pct(plain_ms, 50), pct(plain_ms, 99));
  // Per-layer counts read from one round: the first on input set 0.
  const Round empty{};
  const Round& base = baseline[0] != nullptr ? *baseline[0] : empty;
  const double per_set = complete_sets > 0 ? 1.0 / complete_sets : 0.0;
  auto& m = rep.metrics;
  if (!opt.trace) {
    m.push_back({"step_ms_p50", step_p50, "ms", samples});
    m.push_back({"steps_per_s", steps_per_s, "1/s",
                 std::to_string(w.hosts) + " PMs, " + std::to_string(w.vms) +
                     " VMs"});
    m.push_back({"setup_s", median(setups), "s",
                 std::to_string(setups.size()) + " set-ups"});
    m.push_back({"peak_rss_mb", peak_rss_self + daemon_rss, "MiB",
                 daemon_rss > 0 ? "benchmark + daemon" : "benchmark"});
    m.push_back({"total_cost_usd", cost_sum * per_set, "USD",
                 "per round, mean over input sets"});
    m.push_back({"migrations", migrations_sum * per_set, "count",
                 "per round, mean over input sets"});
  } else {
    // --- per-layer metrics (traced run) ---------------------------------------
    const bool megh = is_megh(w.kind);
    const bool served = w.kind == Kind::kServedMegh;
    const double steps = static_cast<double>(w.steps);
    auto only = [](bool applies, double v) { return applies ? v : 0.0; };
    const double plain_p50 = pct(plain_ms, 50);
    auto overhead_pct = [&](const std::vector<double>& xs) {
      return plain_p50 > 0 && !xs.empty()
                 ? 100.0 * (pct(xs, 50) - plain_p50) / plain_p50
                 : 0.0;
    };
    double complete_rounds = 0.0, compactions = 0.0, wal_bytes = 0.0,
           request_bytes = 0.0;
    std::vector<double> shadow_counts;
    for (const Round& r : rounds) {
      if (!r.complete) continue;
      complete_rounds += 1.0;
      compactions += r.compactions;
      wal_bytes += r.wal_bytes_per_step;
      request_bytes += r.request_bytes_per_step;
      append(shadow_counts, r.shadow_counts);
    }
    const double per_round = complete_rounds > 0 ? 1.0 / complete_rounds : 0.0;
    const double accept =
        base.requested > 0
            ? static_cast<double>(base.applied) / static_cast<double>(base.requested)
            : 0.0;
    std::vector<double> reference_ms;
    for (const Round& r : references) append(reference_ms, r.step_ms);
    const double speedup = w.kind == Kind::kHierMegh && plain_p50 > 0
                               ? median(reference_ms) / plain_p50
                               : 0.0;
    m.push_back({"trace.synth_s", median(attr.synth_s), "s", ""});
    m.push_back({"harness.placement_s", median(attr.placement_s), "s", ""});
    m.push_back({"sim.self_ms_p50", pct(attr.sim_self_ms, 50), "ms", ""});
    m.push_back({"sim.self_ms_p99", pct(attr.sim_self_ms, 99), "ms", ""});
    m.push_back({"sim.migration_accept_ratio", accept, "ratio", ""});
    m.push_back({"core.begin_s", only(megh, median(attr.begin_s)), "s", ""});
    m.push_back({"core.decide_ms_p50", only(megh, pct(attr.decide_ms, 50)), "ms", ""});
    m.push_back({"core.decide_ms_p99", only(megh, pct(attr.decide_ms, 99)), "ms", ""});
    m.push_back({"core.observe_us_p50", only(megh, pct(attr.observe_us, 50)), "us", ""});
    m.push_back({"core.candidates_ms_p50", pct(attr.candidates_ms, 50), "ms",
                 "shadow full-fleet call"});
    m.push_back({"core.candidates_per_step", median(shadow_counts), "count",
                 ""});
    m.push_back({"core.lspi_updates_per_step",
                 only(megh, stat_or_zero(base.final_stats, "lspi_updates") / steps),
                 "count", ""});
    m.push_back({"core.qtable_nnz", stat_or_zero(base.final_stats, "qtable_nnz"),
                 "count", ""});
    m.push_back({"core.singular_skips",
                 stat_or_zero(base.final_stats, "singular_skips"), "count", ""});
    m.push_back({"core.truncations",
                 stat_or_zero(base.final_stats, "truncations"), "count", ""});
    m.push_back({"core.pod_dim_sum", base.pod_dim_sum, "count", ""});
    m.push_back({"baselines.decide_ms_p50", pct(thr_attr.decide_ms, 50), "ms",
                 "THR-MMT on these inputs"});
    m.push_back({"baselines.decide_ms_p99", pct(thr_attr.decide_ms, 99), "ms",
                 "THR-MMT on these inputs"});
    m.push_back({"serve.decide_rtt_us_p50", pct(attr.serve_decide_us, 50), "us", ""});
    m.push_back({"serve.decide_rtt_us_p99", pct(attr.serve_decide_us, 99), "us", ""});
    m.push_back({"serve.observe_rtt_us_p50", pct(attr.serve_observe_us, 50), "us", ""});
    m.push_back({"serve.observe_rtt_us_p99", pct(attr.serve_observe_us, 99), "us", ""});
    m.push_back({"serve.request_bytes_per_step",
                 only(served, request_bytes * per_round), "B", ""});
    m.push_back({"serve.wal_bytes_per_step", only(served, wal_bytes * per_round),
                 "B", ""});
    m.push_back({"serve.init_ms", median(attr.init_ms), "ms", ""});
    m.push_back({"serve.compactions", only(served, compactions * per_round),
                 "count", "per round"});
    m.push_back({"serve.daemon_rss_mb", daemon_rss, "MiB", ""});
    m.push_back({"common.speedup_jobs4_vs_1", speedup, "x", ""});
    m.push_back({"telemetry.phases_overhead_pct", overhead_pct(phases_ms), "%",
                 ""});
    m.push_back({"bench.trace_overhead_pct", overhead_pct(attr.step_net_ms),
                 "%", "spans on vs off"});
    m.push_back({"bench.residual_ms_p50", pct(attr.residual_ms, 50), "ms",
                 "benchmark's own work inside a step"});
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "rounds %zu (+%zu reference), %d steps each, jobs %d, "
                "digest %016llx, error_rate %.6g (%lld of %lld steps failed)",
                rounds.size(), references.size(), w.steps, jobs,
                static_cast<unsigned long long>(rep.digest),
                rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                        static_cast<double>(rep.attempted)
                                  : 0.0,
                rep.failed, rep.attempted);
  rep.notes = buf;
  return rep;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// The build's own compiler flags decide whether it may record timings,
// however the flags were passed.
#if defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "tsan";
#elif defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "asan";
#else
constexpr const char* kSanitizer = "OFF";
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string fingerprint_json(const Options& opt, const std::string& git_sha) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "{\"git_sha\": \"" + git_sha + "\", \"nproc\": " +
         std::to_string(opt.nproc) + ", \"cpu\": \"" + cpu +
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"megh_sanitize\": \"" + std::string(kSanitizer) + "\"}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  megh::Args args;
  args.add_flag("workload",
                "planetlab-flat-800 | fattree-hier-10k | served-flat-800 | all",
                "all");
  args.add_flag("seed", "workload seed (inputs and policy streams)", "1");
  args.add_flag("seconds", "measured time per workload", "10");
  args.add_flag("trace", "0 = end-to-end metrics, 1 = per-layer metrics", "0");
  args.add_flag("daemon", "megh_serve binary for the served workload",
                "megh_serve");
  args.add_flag("scratch", "directory for serve state, records and spans",
                ".");
  args.add_flag("git-sha", "commit recorded with the results", "unknown");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (!kOptimized || std::strcmp(kSanitizer, "OFF") != 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to time a %s build (%s, sanitizer "
                   "%s); build Release without sanitizers\n",
                   PERFBENCH_BUILD_TYPE,
                   kOptimized ? "optimized" : "unoptimized", kSanitizer);
      return 3;
    }
    Options opt;
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    opt.seconds = args.get_double("seconds");
    opt.trace = args.get_int("trace") != 0;
    opt.daemon = args.get("daemon");
    opt.scratch = args.get("scratch");
    opt.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::filesystem::create_directories(opt.scratch);

    const std::string which = args.get("workload");
    std::vector<const Workload*> selected;
    for (const Workload& w : kWorkloads) {
      if (which == "all" || which == w.name) selected.push_back(&w);
    }
    MEGH_REQUIRE(!selected.empty(), "unknown --workload " + which);

    const std::string tag = which + "-seed" + std::to_string(opt.seed) +
                            "-trace" + std::to_string(opt.trace ? 1 : 0);
    const std::filesystem::path spans_path = opt.scratch / (tag + ".spans.jsonl");
    std::filesystem::remove(spans_path);
    const std::string fingerprint = fingerprint_json(opt, args.get("git-sha"));
    std::printf("perfbench: %s\n", fingerprint.c_str());

    long long attempted = 0, failed = 0;
    std::string metrics_json, notes_json;
    for (const Workload* w : selected) {
      Report rep = run_workload(*w, opt, spans_path);
      attempted += rep.attempted;
      failed += rep.failed;
      std::printf("%s (seed %llu): %s\n", w->name,
                  static_cast<unsigned long long>(opt.seed), rep.notes.c_str());
      for (const Metric& m : rep.metrics) {
        std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
        const std::string key =
            selected.size() > 1 ? std::string(w->name) + "." + m.name : m.name;
        if (!metrics_json.empty()) metrics_json += ", ";
        metrics_json += "\"" + key + "\": {\"value\": " + json_number(m.value) +
                        ", \"unit\": \"" + m.unit + "\"}";
      }
      if (!notes_json.empty()) notes_json += ", ";
      notes_json += "\"" + std::string(w->name) + "\": \"" + rep.notes + "\"";
    }
    const std::string result =
        "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
        metrics_json + "}}";
    std::ofstream(opt.scratch / (tag + ".record.json"))
        << "{\"fingerprint\": " << fingerprint << ", \"seed\": " << opt.seed
        << ", \"seconds\": " << json_number(opt.seconds)
        << ", \"notes\": {" << notes_json << "}, \"result\": " << result
        << "}\n";
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
