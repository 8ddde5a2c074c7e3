// Exact-equivalence property test for the sampled candidate path.
//
// generate_candidates finds each source's packing target by walking the
// utilization-sorted active-host list and folds PABFD over the active
// hosts before the sleeping ones. Both are rewrites of plain full-range
// strict-preference folds over ascending host ids. The reference below is
// that earlier form, kept here only as the specification: one serial pass
// per source over every host of the range, computing each per-host value
// from the Datacenter accessors inline. Its source selection uses the same
// (utilization, host id) sort order as the generator, so tied hosts order
// identically in both.
//
// Randomized fleets exercise mixed G4/G5 hosts, forced utilization ties,
// hosts at kPackCeiling ± 1 ulp and RAM-tight hosts, no feasible active
// host (the sleeping-host PABFD fallback), every target host asleep, the
// source's own host being the busiest, more overloaded VMs than
// kMaxOverloadedSources, runs with and without a fabric, pod and block
// domains (some of whose VMs hold no slot), and 1 and 4 shards. Each call
// must produce the reference's candidate vector and leave the Rng in the
// reference's state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/candidates.hpp"
#include "sim/host_spec.hpp"

namespace megh {
namespace {

/// How often the reference hit each case the generator rewrites; the test
/// asserts every one of them occurred, so a fleet generator that stops
/// reaching a case fails loudly instead of passing vacuously.
struct Coverage {
  int sleeping_pabfd = 0;    // PABFD winner asleep: no active host fit
  int pack_ties = 0;         // a feasible host lost to an equal-util lower id
  int own_host_busiest = 0;  // the source's own host would have won packing
  int local_pack = 0;        // in-pod packing target differs from global
  int no_pack = 0;           // no host fits under kPackCeiling
  int source_cap = 0;        // overloaded VMs left out at the source cap
};

std::vector<CandidateAction> reference_candidates(
    const Datacenter& dc, std::span<const double> host_util, double beta,
    const ActionBasis& basis, const CandidateConfig& config, Rng& rng,
    const FatTreeTopology* network, const CandidateDomain* domain,
    Coverage& cov) {
  if (!config.network_aware) network = nullptr;
  const int host_lo = domain != nullptr ? domain->host_begin : 0;
  const int host_hi = domain != nullptr ? domain->host_end : dc.num_hosts();
  const int width = host_hi - host_lo;
  const auto util = [&](int h) {
    return host_util[static_cast<std::size_t>(h)];
  };
  const auto fits = [&](int h, double vm_ram) {
    return dc.host_ram_used(h) + vm_ram <= dc.host_spec(h).ram_mb + 1e-9;
  };
  const auto feasible = [&](int h, double vm_ram, double vm_mips,
                            double ceiling) {
    if (!fits(h, vm_ram)) return false;
    const double capacity = dc.host_spec(h).mips;
    return util(h) * capacity + vm_mips <= ceiling * capacity + 1e-9;
  };

  std::vector<std::pair<int, CandidateGroup>> sources;
  std::set<int> seen_vm;
  const auto push_source = [&](int vm, CandidateGroup group) {
    if (seen_vm.insert(vm).second) sources.emplace_back(vm, group);
  };
  const auto slotless = [&](int vm) {
    return domain != nullptr &&
           domain->vm_slot[static_cast<std::size_t>(vm)] < 0;
  };
  std::vector<int> overloaded;
  for (int h = host_lo; h < host_hi; ++h) {
    if (util(h) > beta) overloaded.push_back(h);
  }
  std::sort(overloaded.begin(), overloaded.end(), [&](int a, int b) {
    return util(a) > util(b) || (util(a) == util(b) && a < b);
  });
  for (int h : overloaded) {
    for (int vm : dc.vms_on(h)) {
      if (static_cast<int>(sources.size()) >= kMaxOverloadedSources) {
        ++cov.source_cap;
        break;
      }
      if (slotless(vm)) continue;
      push_source(vm, CandidateGroup::kOverloaded);
    }
  }
  std::vector<int> active;
  for (int h = host_lo; h < host_hi; ++h) {
    if (dc.is_active(h)) active.push_back(h);
  }
  std::sort(active.begin(), active.end(), [&](int a, int b) {
    return util(a) < util(b) || (util(a) == util(b) && a < b);
  });
  int consolidation_added = 0;
  for (int h : active) {
    if (consolidation_added >= kConsolidationSources) break;
    for (int vm : dc.vms_on(h)) {
      if (consolidation_added >= kConsolidationSources) break;
      if (slotless(vm)) continue;
      push_source(vm, CandidateGroup::kConsolidation);
      ++consolidation_added;
    }
  }
  const std::size_t universe = domain != nullptr
                                   ? domain->vms.size()
                                   : static_cast<std::size_t>(dc.num_vms());
  for (int i = 0; i < kRandomSources && universe > 0; ++i) {
    const std::size_t pick = rng.index(universe);
    push_source(domain != nullptr ? domain->vms[pick] : static_cast<int>(pick),
                CandidateGroup::kExploration);
  }

  std::vector<CandidateAction> out;
  std::set<std::int64_t> seen_index;
  for (const auto& [vm, group] : sources) {
    const int current = dc.host_of(vm);
    const double vm_ram = dc.vm_spec(vm).ram_mb;
    const double vm_mips = dc.vm_demand_mips(vm);
    const auto push = [&](int host) {
      if (seen_index.insert(basis.index(vm, host)).second) {
        out.push_back(CandidateAction{vm, host, basis.index(vm, host),
                                      host == current, group});
      }
    };

    // PABFD: prefer active, then the smaller power increase; first wins.
    int pabfd = -1;
    double best_increase = std::numeric_limits<double>::infinity();
    bool pabfd_active = false;
    if (group != CandidateGroup::kConsolidation) {
      for (int h = host_lo; h < host_hi; ++h) {
        if (h == current || !fits(h, vm_ram)) continue;
        const HostSpec& spec = dc.host_spec(h);
        const double after = util(h) + vm_mips / spec.mips;
        if (after > kTargetUtilCeiling + 1e-9) continue;
        const bool is_active = dc.is_active(h);
        const double base = is_active
                                ? spec.power.watts(std::min(1.0, util(h)))
                                : spec.power.sleep_watts();
        const double increase = spec.power.watts(std::min(1.0, after)) - base;
        const bool better = pabfd < 0 || (is_active && !pabfd_active) ||
                            (is_active == pabfd_active &&
                             increase < best_increase);
        if (better) {
          pabfd = h;
          best_increase = increase;
          pabfd_active = is_active;
        }
      }
      if (pabfd >= 0 && !pabfd_active) ++cov.sleeping_pabfd;
    }

    // Packing: strictly busiest feasible active host, first wins; in-pod
    // variant with a fabric.
    int pack = -1, pack_local = -1;
    double pack_util = -1.0, pack_local_util = -1.0;
    for (int h = host_lo; h < host_hi; ++h) {
      if (h == current || !dc.is_active(h)) continue;
      if (!feasible(h, vm_ram, vm_mips, kPackCeiling)) continue;
      const double u = util(h);
      if (u == pack_util) ++cov.pack_ties;
      if (u > pack_util) {
        pack = h;
        pack_util = u;
      }
      if (network != nullptr && u > pack_local_util &&
          network->pod_of(h) == network->pod_of(current)) {
        pack_local = h;
        pack_local_util = u;
      }
    }
    if (pack < 0) ++cov.no_pack;
    if (pack >= 0 && util(current) > pack_util &&
        feasible(current, vm_ram, vm_mips, kPackCeiling)) {
      ++cov.own_host_busiest;
    }
    if (pack_local >= 0 && pack_local != pack) ++cov.local_pack;
    const int pack_choice = pack_local >= 0 ? pack_local : pack;

    push(current);
    if (group != CandidateGroup::kConsolidation && pabfd >= 0) push(pabfd);
    if (pack_choice >= 0) push(pack_choice);
    if (group == CandidateGroup::kConsolidation) continue;
    int added = 0;
    const int probes = std::min(width, 4 * kTargetsPerSource);
    for (int i = 0; i < probes && added < kTargetsPerSource; ++i) {
      int h;
      if (network != nullptr && rng.bernoulli(kLocalProbeFraction)) {
        const int pod_base =
            network->pod_of(current) * network->hosts_per_pod();
        h = pod_base + static_cast<int>(rng.index(
                           static_cast<std::size_t>(network->hosts_per_pod())));
        if (h >= dc.num_hosts()) continue;
      } else {
        h = host_lo +
            static_cast<int>(rng.index(static_cast<std::size_t>(width)));
      }
      if (h < host_lo || h >= host_hi || h == current) continue;
      if (!feasible(h, vm_ram, vm_mips, kTargetUtilCeiling)) continue;
      push(h);
      ++added;
    }
  }
  return out;
}

/// One randomized input: the fleet, its placement, host_util (which the
/// generator takes as a free input, so ties and boundaries are set there),
/// the overload threshold and the call's configuration.
struct Fleet {
  std::unique_ptr<Datacenter> dc;
  std::unique_ptr<ActionBasis> basis;
  std::vector<double> host_util;
  double beta = 0.7;
  CandidateConfig config;
  std::optional<FatTreeTopology> fabric;
};

/// Scenario knobs, one per fleet: which of the edge cases to force.
enum class Shape {
  kRealistic,         // placement-derived utilization, lightly perturbed
  kTies,              // utilization quantized to a coarse grid
  kBoundary,          // hosts at kPackCeiling ± 1 ulp and at a source's edge
  kNoActiveFits,      // every active host too busy: PABFD falls to sleepers
  kAllTargetsAsleep,  // every VM on one host
  kOwnHostBusiest,    // the busiest host overloaded and packable
  kAllOverloaded,     // every active host overloaded: the source cap binds
};

Fleet make_fleet(std::uint64_t seed, Shape shape) {
  Rng rng(seed);
  Fleet f;
  const int hosts = 8 + static_cast<int>(rng.index(89));
  std::vector<HostSpec> host_specs;
  for (int h = 0; h < hosts; ++h) {
    host_specs.push_back(rng.bernoulli(0.5) ? hp_proliant_g4_spec()
                                            : hp_proliant_g5_spec());
  }
  // Half the fleets use RAM sizes that fill a 4 GB host exactly, so fits()
  // meets its boundary; the rest draw the paper's ranges.
  const bool exact_ram = rng.bernoulli(0.5);
  const int want_vms = hosts / 2 + static_cast<int>(rng.index(
                                       static_cast<std::size_t>(hosts + 1)));
  // Hosts allowed to hold VMs; the rest stay asleep.
  const double occupied = shape == Shape::kAllTargetsAsleep
                              ? 0.0
                              : 0.3 + 0.7 * rng.uniform();
  std::vector<int> allowed;
  for (int h = 0; h < hosts; ++h) {
    if (rng.uniform() < occupied) allowed.push_back(h);
  }
  if (allowed.empty()) allowed.push_back(static_cast<int>(rng.index(
      static_cast<std::size_t>(hosts))));

  // Decide the placement first, then build the Datacenter from the VMs
  // that found room, so every VM is placed (no kUnplaced sources).
  std::vector<VmSpec> vm_specs;
  std::vector<int> vm_hosts;
  std::vector<double> ram_used(static_cast<std::size_t>(hosts), 0.0);
  for (int i = 0; i < want_vms; ++i) {
    VmSpec spec = sample_vm_spec(rng);
    if (exact_ram) spec.ram_mb = rng.bernoulli(0.5) ? 1024.0 : 2048.0;
    const int h = allowed[rng.index(allowed.size())];
    const auto hi = static_cast<std::size_t>(h);
    if (ram_used[hi] + spec.ram_mb > host_specs[hi].ram_mb) continue;
    ram_used[hi] += spec.ram_mb;
    vm_specs.push_back(spec);
    vm_hosts.push_back(h);
  }
  const int vms = static_cast<int>(vm_specs.size());
  f.dc = std::make_unique<Datacenter>(host_specs, vm_specs);
  for (int vm = 0; vm < vms; ++vm) {
    f.dc->place(vm, vm_hosts[static_cast<std::size_t>(vm)]);
  }
  std::vector<double> demand(static_cast<std::size_t>(vms));
  for (double& d : demand) d = 0.02 + 0.5 * rng.uniform();
  f.dc->set_demands(demand);
  f.basis = std::make_unique<ActionBasis>(vms, hosts);

  CandidateConfig& c = f.config;
  c.full_enumeration_limit = 0;  // always the sampled path
  c.network_aware = rng.bernoulli(0.8);
  f.beta = 0.5 + 0.4 * rng.uniform();
  if (rng.bernoulli(0.5)) f.fabric.emplace(FatTreeTopology::for_hosts(hosts));

  std::vector<double>& u = f.host_util;
  u = f.dc->all_host_utilization();
  for (double& x : u) {
    if (rng.bernoulli(0.3)) x *= 0.5 + rng.uniform();
  }
  switch (shape) {
    case Shape::kRealistic:
    case Shape::kAllTargetsAsleep:
      break;
    case Shape::kTies:
      for (double& x : u) x = std::round(x * 8.0) / 8.0;
      break;
    case Shape::kBoundary: {
      for (int h = 0; h < hosts; ++h) {
        const double r = rng.uniform();
        double& x = u[static_cast<std::size_t>(h)];
        if (r < 0.15) x = kPackCeiling;
        if (r >= 0.15 && r < 0.3) x = std::nextafter(kPackCeiling, 0.0);
        if (r >= 0.3 && r < 0.45) x = std::nextafter(kPackCeiling, 2.0);
      }
      // Put hosts exactly on (and 1 ulp either side of) the packing edge of
      // the least-utilized active host's first VM — a consolidation source.
      // VM 0 always found room, so its host is active.
      int least = f.dc->host_of(0);
      for (int h = 0; h < hosts; ++h) {
        if (f.dc->is_active(h) && u[static_cast<std::size_t>(h)] <
                                      u[static_cast<std::size_t>(least)]) {
          least = h;
        }
      }
      const double mips = f.dc->vm_demand_mips(f.dc->vms_on(least)[0]);
      for (int h = 0; h < hosts; ++h) {
        if (h == least || !f.dc->is_active(h) || !rng.bernoulli(0.5)) {
          continue;
        }
        const double cap = f.dc->host_spec(h).mips;
        const double edge = (kPackCeiling * cap + 1e-9 - mips) / cap;
        const double steps[] = {0.0, -1.0, 1.0};
        const double dir = steps[rng.index(3)];
        u[static_cast<std::size_t>(h)] =
            dir == 0.0 ? edge : std::nextafter(edge, dir * 2.0);
      }
      break;
    }
    case Shape::kNoActiveFits:
      for (int h = 0; h < hosts; ++h) {
        if (f.dc->is_active(h)) u[static_cast<std::size_t>(h)] = 1.0;
      }
      break;
    case Shape::kOwnHostBusiest:
      // Every host well under kPackCeiling; VM 0's host is the busiest and
      // the only overloaded one, so its VMs would pack onto it.
      for (double& x : u) x = std::min(x, 0.3);
      u[static_cast<std::size_t>(f.dc->host_of(0))] = 0.35;
      f.beta = 0.32;
      break;
    case Shape::kAllOverloaded:
      f.beta = 0.0;
      break;
  }
  return f;
}

bool same(const CandidateAction& a, const CandidateAction& b) {
  return a.vm == b.vm && a.host == b.host && a.index == b.index &&
         a.is_noop == b.is_noop && a.group == b.group;
}

/// Run the generator and the reference from the same Rng seed and require
/// identical candidates and identical Rng state afterwards.
void expect_equivalent(const Fleet& f, const FatTreeTopology* network,
                       const CandidateDomain* domain,
                       const ShardExecutor* exec, std::uint64_t rng_seed,
                       CandidateScratch& scratch, Coverage& cov,
                       const std::string& label) {
  Rng want_rng(rng_seed);
  const std::vector<CandidateAction> want =
      reference_candidates(*f.dc, f.host_util, f.beta, *f.basis, f.config,
                           want_rng, network, domain, cov);
  Rng got_rng(rng_seed);
  generate_candidates(*f.dc, f.host_util, f.beta, *f.basis, f.config,
                      got_rng, scratch, network, exec, domain);
  const std::vector<CandidateAction>& got = scratch.candidates;
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same(want[i], got[i]))
        << label << " #" << i << ": want (" << want[i].vm << " -> "
        << want[i].host << "), got (" << got[i].vm << " -> " << got[i].host
        << ")";
  }
  EXPECT_TRUE(want_rng.engine() == got_rng.engine()) << label;
}

/// Four-shard plan over `hosts` with uneven, seed-dependent bounds.
ShardPlan four_shards(int hosts, Rng& rng) {
  std::vector<int> cuts;
  for (int h = 1; h < hosts; ++h) cuts.push_back(h);
  rng.shuffle(cuts);
  cuts.resize(3);
  std::sort(cuts.begin(), cuts.end());
  return ShardPlan::from_bounds({0, cuts[0], cuts[1], cuts[2], hosts});
}

TEST(CandidateScanEquivalence, MatchesFullRangeFoldsOnRandomFleets) {
  const Shape shapes[] = {Shape::kRealistic,        Shape::kTies,
                          Shape::kBoundary,         Shape::kNoActiveFits,
                          Shape::kAllTargetsAsleep, Shape::kOwnHostBusiest,
                          Shape::kAllOverloaded};
  Coverage cov;
  // One scratch across every call and fleet size: stale per-call state
  // would show up as a mismatch.
  CandidateScratch scratch;
  int domain_calls = 0;
  int slotless_vms = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const Shape shape = shapes[seed % std::size(shapes)];
    const Fleet f = make_fleet(seed, shape);
    const int hosts = f.dc->num_hosts();
    const FatTreeTopology* network = f.fabric ? &*f.fabric : nullptr;
    const std::string label = "seed " + std::to_string(seed);

    // Fleet calls: one shard (no executor) and four shards at jobs 4.
    expect_equivalent(f, network, nullptr, nullptr, seed * 7, scratch, cov,
                      label + " 1 shard");
    Rng plan_rng(seed);
    const ShardExecutor exec(four_shards(hosts, plan_rng), 4);
    expect_equivalent(f, network, nullptr, &exec, seed * 7, scratch, cov,
                      label + " 4 shards");

    // Domain call: a fabric pod, or a contiguous block without one.
    int lo = 0, hi = hosts;
    if (network != nullptr) {
      const int pod = static_cast<int>(plan_rng.index(
          static_cast<std::size_t>(network->num_pods())));
      lo = std::min(hosts, pod * network->hosts_per_pod());
      hi = std::min(hosts, lo + network->hosts_per_pod());
    } else {
      lo = static_cast<int>(plan_rng.index(static_cast<std::size_t>(hosts)));
      hi = lo + 1 + static_cast<int>(plan_rng.index(
                        static_cast<std::size_t>(hosts - lo)));
    }
    if (lo >= hi) continue;
    // A tenth of the range's VMs get no slot (a pod over its capacity):
    // hosted in the range, they must never become sources.
    std::vector<int> vms;
    std::vector<std::int32_t> slot(
        static_cast<std::size_t>(f.dc->num_vms()), 0);
    for (int vm = 0; vm < f.dc->num_vms(); ++vm) {
      const int h = f.dc->host_of(vm);
      if (h < lo || h >= hi) continue;
      if (plan_rng.bernoulli(0.1)) {
        slot[static_cast<std::size_t>(vm)] = -1;
        ++slotless_vms;
        continue;
      }
      slot[static_cast<std::size_t>(vm)] =
          static_cast<std::int32_t>(vms.size());
      vms.push_back(vm);
    }
    CandidateDomain domain;
    domain.host_begin = lo;
    domain.host_end = hi;
    domain.vms = vms;
    domain.vm_slot = slot;
    domain.slot_capacity = static_cast<int>(vms.size());
    CandidateScratch domain_scratch;
    expect_equivalent(f, network, &domain, nullptr, seed * 11, domain_scratch,
                      cov, label + " domain");
    ++domain_calls;
  }
  EXPECT_GT(domain_calls, 100);
  EXPECT_GT(slotless_vms, 0);
  EXPECT_GT(cov.sleeping_pabfd, 0);
  EXPECT_GT(cov.pack_ties, 0);
  EXPECT_GT(cov.own_host_busiest, 0);
  EXPECT_GT(cov.local_pack, 0);
  EXPECT_GT(cov.no_pack, 0);
  EXPECT_GT(cov.source_cap, 0);
}

}  // namespace
}  // namespace megh
