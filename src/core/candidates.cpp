#include "core/candidates.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "telemetry/telemetry.hpp"

namespace megh {

namespace {

bool target_feasible(const Datacenter& dc, std::span<const double> host_util,
                     int vm, int host, double util_ceiling) {
  if (!dc.fits(vm, host)) return false;
  const double capacity = dc.host_spec(host).mips;
  const double post = host_util[static_cast<std::size_t>(host)] * capacity +
                      dc.vm_demand_mips(vm);
  return post <= util_ceiling * capacity + 1e-9;
}

/// Host `h`'s row for the scans, read straight from the Datacenter;
/// `active` is dc.is_active(h).
HostRow host_row(const Datacenter& dc, std::span<const double> host_util,
                 int h, bool active) {
  const HostSpec& spec = dc.host_spec(h);
  const double util = host_util[static_cast<std::size_t>(h)];
  const double base_watts = active ? spec.power.watts(std::min(1.0, util))
                                   : spec.power.sleep_watts();
  return HostRow{h,           util, spec.mips, dc.host_ram_used(h),
                 spec.ram_mb, base_watts, &spec.power};
}

/// Datacenter::fits on a row (identical comparison).
bool row_fits(const HostRow& row, double vm_ram) {
  return row.ram_used + vm_ram <= row.ram_cap + 1e-9;
}

void add_candidate(std::vector<CandidateAction>& out, const ActionBasis& basis,
                   int vm, int host, int current, CandidateGroup group) {
  out.push_back(CandidateAction{vm, host, basis.index(vm, host),
                                host == current, group});
}

/// Full enumeration: every (vm, feasible host) pair plus the no-op.
///
/// Emission order is pod-major when a fabric is attached: pods in
/// ascending order, and within a pod its VMs in ascending order (a VM
/// belongs to the pod of its current host), each VM emitting its no-op
/// first and then targets by ascending host. Per-pod outputs are therefore
/// contiguous blocks, so a sharded enumeration merges by plain
/// concatenation in pod order — no interleaving to reconstruct. Without a
/// fabric there is a single block and the order is exactly the historical
/// vm-ascending one (the scalar-golden order).
void enumerate_all(const Datacenter& dc, std::span<const double> host_util,
                   const ActionBasis& basis, const FatTreeTopology* network,
                   const CandidateDomain* domain,
                   std::vector<CandidateAction>& out) {
  // d is small on this path by construction, but full_enumeration_limit is
  // caller-configurable: clamp the occupancy guess so a generous limit
  // cannot turn the reserve itself into a huge upfront allocation.
  const std::size_t guess = static_cast<std::size_t>(dc.num_vms()) *
                            static_cast<std::size_t>(dc.num_hosts()) / 4;
  out.reserve(std::min<std::size_t>(guess, 65'536));
  const int host_lo = domain != nullptr ? domain->host_begin : 0;
  const int host_hi = domain != nullptr ? domain->host_end : dc.num_hosts();
  const auto emit_vm = [&](int vm) {
    const int current = dc.host_of(vm);
    add_candidate(out, basis, vm, current, current,
                  CandidateGroup::kExploration);
    for (int h = host_lo; h < host_hi; ++h) {
      if (h == current) continue;
      if (target_feasible(dc, host_util, vm, h, kTargetUtilCeiling)) {
        add_candidate(out, basis, vm, h, current,
                      CandidateGroup::kExploration);
      }
    }
  };
  if (domain != nullptr) {
    // Domain VMs come pre-sorted ascending — the same order the single-pod
    // (and fabric-free) fleet enumeration below walks them in.
    for (int vm : domain->vms) emit_vm(vm);
    return;
  }
  if (network == nullptr || network->capacity() < dc.num_hosts()) {
    for (int vm = 0; vm < dc.num_vms(); ++vm) emit_vm(vm);
    return;
  }
  for (int pod = 0; pod < network->num_pods(); ++pod) {
    for (int vm = 0; vm < dc.num_vms(); ++vm) {
      if (network->pod_of(dc.host_of(vm)) == pod) emit_vm(vm);
    }
  }
#ifndef NDEBUG
  // The concatenation contract above: source pods never decrease.
  for (std::size_t i = 1; i < out.size(); ++i) {
    MEGH_ASSERT(network->pod_of(dc.host_of(out[i].vm)) >=
                    network->pod_of(dc.host_of(out[i - 1].vm)),
                "enumerate_all: pod blocks must be contiguous");
  }
#endif
}

}  // namespace

void radix_sort_by_key(std::vector<UtilKey>& items,
                       std::vector<UtilKey>& tmp) {
  constexpr int kDigits = 8;
  const std::size_t n = items.size();
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 256>, kDigits> counts{};
  for (const UtilKey& item : items) {
    for (int d = 0; d < kDigits; ++d) {
      ++counts[static_cast<std::size_t>(d)][(item.key >> (8 * d)) & 0xFF];
    }
  }
  tmp.resize(n);
  for (int d = 0; d < kDigits; ++d) {
    auto& bucket = counts[static_cast<std::size_t>(d)];
    // A digit every key shares would scatter the items onto themselves.
    if (bucket[(items[0].key >> (8 * d)) & 0xFF] == n) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& count : bucket) {
      const std::uint32_t size = count;
      count = start;
      start += size;
    }
    for (const UtilKey& item : items) {
      tmp[bucket[(item.key >> (8 * d)) & 0xFF]++] = item;
    }
    items.swap(tmp);
  }
}

void generate_candidates(const Datacenter& dc,
                         std::span<const double> host_util, double beta,
                         const ActionBasis& basis,
                         const CandidateConfig& config, Rng& rng,
                         CandidateScratch& scratch,
                         const FatTreeTopology* network,
                         const ShardExecutor* exec,
                         const CandidateDomain* domain) {
  MEGH_TRACE_SCOPE("megh.candidates");
  if (!config.network_aware) network = nullptr;
  MEGH_ASSERT(static_cast<int>(host_util.size()) == dc.num_hosts(),
              "host_util size mismatch");
  scratch.candidates.clear();
  // The enumeration gate compares the reachable action count: the full
  // basis for fleet calls, |vms| × width for a domain (the same product —
  // N × M — when the domain spans the fleet).
  const std::int64_t reachable_dim =
      domain != nullptr
          ? static_cast<std::int64_t>(domain->vms.size()) *
                static_cast<std::int64_t>(domain->host_end -
                                          domain->host_begin)
          : basis.dim();
  if (reachable_dim <= config.full_enumeration_limit) {
    enumerate_all(dc, host_util, basis, network, domain, scratch.candidates);
    return;
  }

  const int num_hosts = dc.num_hosts();
  // Host range this call may source from, scan and target. Every per-host
  // scratch array below holds at most `hosts` = the range's width, so a
  // pod-sized domain costs pod-sized scratch.
  const int host_lo = domain != nullptr ? domain->host_begin : 0;
  const int host_hi = domain != nullptr ? domain->host_end : num_hosts;
  MEGH_ASSERT(host_lo >= 0 && host_lo < host_hi && host_hi <= num_hosts,
              "generate_candidates: domain host range out of bounds");
  const std::size_t hosts = static_cast<std::size_t>(host_hi - host_lo);

  // Worst-case source/candidate counts — used to size every reusable
  // container up front, so no later step can set a new capacity record and
  // trigger a mid-run reallocation.
  constexpr std::size_t max_sources =
      kMaxOverloadedSources + kConsolidationSources + kRandomSources;
  constexpr std::size_t max_candidates =
      max_sources * kMaxCandidatesPerSource;

  // --- select source VMs (tagged by the group they will draw in) ---
  // The "seen" stamp array is indexed by the VM's dense slot: the global vm
  // id for fleet calls, the domain's vm_slot mapping for pod calls — so a
  // pod-sized domain keeps the array pod-sized.
  const std::size_t stamp_slots =
      domain != nullptr ? static_cast<std::size_t>(domain->slot_capacity)
                        : static_cast<std::size_t>(dc.num_vms());
  if (scratch.vm_epoch.size() != stamp_slots) {
    scratch.vm_epoch.assign(stamp_slots, 0);
    scratch.epoch = 0;
    scratch.sources.reserve(max_sources);
  }
  if (++scratch.epoch == 0) {  // wrapped: stale stamps could alias
    std::fill(scratch.vm_epoch.begin(), scratch.vm_epoch.end(), 0u);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  auto& sources = scratch.sources;
  sources.clear();
  const auto stamp_of = [&](int vm) -> std::uint32_t& {
    const std::size_t slot =
        domain != nullptr
            ? static_cast<std::size_t>(
                  domain->vm_slot[static_cast<std::size_t>(vm)])
            : static_cast<std::size_t>(vm);
    MEGH_ASSERT(slot < scratch.vm_epoch.size(),
                "generate_candidates: vm slot out of range");
    return scratch.vm_epoch[slot];
  };
  // A VM the domain holds no slot for is hosted in the range but is not
  // one of its VMs (never true of fleet calls).
  const auto slotless = [&](int vm) {
    return domain != nullptr &&
           domain->vm_slot[static_cast<std::size_t>(vm)] < 0;
  };
  const auto push_source = [&](int vm, CandidateGroup group) {
    std::uint32_t& stamp = stamp_of(vm);
    if (stamp != epoch) {
      stamp = epoch;
      sources.emplace_back(vm, group);
    }
  };

  const auto util_of = [&](int h) {
    return host_util[static_cast<std::size_t>(h)];
  };

  // --- one pass over the range: overloaded hosts and the active table ---
  // The table is gathered in id order; each row carries a radix key whose
  // stable sort below yields the (utilization, id) order.
  auto& overloaded = scratch.overloaded_hosts;
  auto& active = scratch.active;
  auto& order = scratch.order;
  overloaded.clear();
  active.clear();
  order.clear();
  if (active.capacity() < hosts) {
    overloaded.reserve(hosts);
    active.reserve(hosts);
    order.reserve(hosts);
    scratch.order_tmp.reserve(hosts);
  }
  for (int h = host_lo; h < host_hi; ++h) {
    if (util_of(h) > beta) overloaded.push_back(h);
    if (!dc.is_active(h)) continue;
    order.push_back(UtilKey{util_sort_key(util_of(h)),
                            static_cast<std::uint32_t>(active.size())});
    active.push_back(host_row(dc, host_util, h, true));
  }

  // 1. VMs on overloaded hosts, most-overloaded hosts first; ties by id.
  std::sort(overloaded.begin(), overloaded.end(), [&](int a, int b) {
    return util_of(a) > util_of(b) || (util_of(a) == util_of(b) && a < b);
  });
  for (int h : overloaded) {
    for (int vm : dc.vms_on(h)) {
      if (static_cast<int>(sources.size()) >= kMaxOverloadedSources) break;
      if (slotless(vm)) continue;
      push_source(vm, CandidateGroup::kOverloaded);
    }
  }

  // 2. Consolidation: VMs on the least-utilized active hosts.
  radix_sort_by_key(order, scratch.order_tmp);
  int consolidation_added = 0;
  for (const UtilKey& o : order) {
    if (consolidation_added >= kConsolidationSources) break;
    for (int vm : dc.vms_on(active[o.pos].id)) {
      if (consolidation_added >= kConsolidationSources) break;
      if (slotless(vm)) continue;
      push_source(vm, CandidateGroup::kConsolidation);
      ++consolidation_added;
    }
  }

  // 3. Random exploration sources. Domain calls draw from the domain's VM
  // list; a fleet-spanning domain has vms[i] == i, so the Rng consumption
  // and the chosen VM match the domain-free draw exactly.
  const std::size_t vm_universe = domain != nullptr
                                      ? domain->vms.size()
                                      : static_cast<std::size_t>(dc.num_vms());
  for (int i = 0; i < kRandomSources && vm_universe > 0; ++i) {
    const std::size_t pick = rng.index(vm_universe);
    push_source(domain != nullptr ? domain->vms[pick]
                                  : static_cast<int>(pick),
                CandidateGroup::kExploration);
  }

  // --- resolve the shard plan (single code path, sharded or not) ---
  // The batched PABFD scan below always runs per shard and merges in shard
  // order; with no executor the whole fleet is one shard, which makes the
  // merged result trivially the serial fold. One implementation, no drift.
  // Domain calls never fan out: they already execute inside one of the
  // executor's shard workers (the pool is not re-entrant), and their single
  // shard is the domain itself. Shard bounds are relative to host_lo.
  if (domain != nullptr) exec = nullptr;
  const int domain_width = host_hi - host_lo;
  const ShardPlan* plan = nullptr;
  if (exec != nullptr) {
    MEGH_ASSERT(exec->plan().count() == num_hosts,
                "generate_candidates: executor plan does not cover the fleet");
    plan = &exec->plan();
  } else {
    if (!scratch.fallback_plan.has_value() ||
        scratch.fallback_plan->count() != domain_width) {
      scratch.fallback_plan = ShardPlan::single(domain_width);
    }
    plan = &*scratch.fallback_plan;
  }
  const int num_shards = plan->num_shards();
  const bool fan_out = exec != nullptr && exec->parallel();

  // --- batched per-(shard, source) PABFD scan ---
  // PABFD is a strict-preference fold over ascending hosts: any feasible
  // active host beats every sleeping one, then smaller power increase, and
  // the first host wins ties. So it folds the active table alone and reads
  // the sleeping hosts only when no active host fits. Each shard folds the
  // rows of its contiguous id range, and a serial merge in shard order
  // reproduces the full-range fold bit-for-bit.
  const std::size_t nsrc = sources.size();
  scratch.src_current.resize(nsrc);
  scratch.src_ram.resize(nsrc);
  scratch.src_mips.resize(nsrc);
  for (std::size_t k = 0; k < nsrc; ++k) {
    const int vm = sources[k].first;
    scratch.src_current[k] = dc.host_of(vm);
    scratch.src_ram[k] = dc.vm_spec(vm).ram_mb;
    scratch.src_mips[k] = dc.vm_demand_mips(vm);
  }
  using ScanPartial = CandidateScratch::ScanPartial;
  // Fold a host into a source's PABFD partial (skipped when infeasible).
  const auto pabfd_step = [](ScanPartial& p, const HostRow& row, int current,
                             double vm_ram, double vm_mips) {
    if (row.id == current) return;
    if (!row_fits(row, vm_ram)) return;
    const double after = row.util + vm_mips / row.capacity;
    if (after > kTargetUtilCeiling + 1e-9) return;
    const double increase =
        row.power->watts(std::min(1.0, after)) - row.base_watts;
    if (p.host < 0 || increase < p.increase) {
      p.host = row.id;
      p.increase = increase;
    }
  };
  const auto row_at_or_after = [&](int h) {
    return std::lower_bound(
        active.begin(), active.end(), h,
        [](const HostRow& row, int id) { return row.id < id; });
  };
  scratch.scan_partials.resize(static_cast<std::size_t>(num_shards) * nsrc);
  const auto scan_shard = [&](int shard) {
    // Shard bounds are relative to host_lo (fleet plans have host_lo == 0).
    const auto first = row_at_or_after(host_lo + plan->shard_begin(shard));
    const auto last = row_at_or_after(host_lo + plan->shard_end(shard));
    ScanPartial* partials =
        scratch.scan_partials.data() +
        static_cast<std::size_t>(shard) * nsrc;
    for (std::size_t k = 0; k < nsrc; ++k) {
      ScanPartial p;
      // Consolidation sources get a packing-only menu: no PABFD target.
      if (sources[k].second != CandidateGroup::kConsolidation) {
        const int current = scratch.src_current[k];
        const double vm_ram = scratch.src_ram[k];
        const double vm_mips = scratch.src_mips[k];
        for (auto it = first; it != last; ++it) {
          pabfd_step(p, *it, current, vm_ram, vm_mips);
        }
      }
      partials[k] = p;
    }
  };
  if (fan_out) {
    exec->for_shards(scan_shard);
  } else {
    for (int s = 0; s < num_shards; ++s) scan_shard(s);
  }

  // Serial merge, shard order = ascending host order, with the fold's own
  // strict preference; then the sleeping-host fold for any source that no
  // active host fits.
  scratch.pabfd_choice.resize(nsrc);
  for (std::size_t k = 0; k < nsrc; ++k) {
    ScanPartial best;
    for (int s = 0; s < num_shards; ++s) {
      const ScanPartial& p =
          scratch.scan_partials[static_cast<std::size_t>(s) * nsrc + k];
      if (p.host >= 0 && (best.host < 0 || p.increase < best.increase)) {
        best = p;
      }
    }
    if (best.host < 0 &&
        sources[k].second != CandidateGroup::kConsolidation) {
      for (int h = host_lo; h < host_hi; ++h) {
        if (dc.is_active(h)) continue;
        pabfd_step(best, host_row(dc, host_util, h, false),
                   scratch.src_current[k], scratch.src_ram[k],
                   scratch.src_mips[k]);
      }
    }
    scratch.pabfd_choice[k] = best.host;
  }

  // Packing target for source k: the busiest active host other than its
  // own that fits under kPackCeiling, restricted to ids in [id_lo, id_hi).
  // `order` is (utilization, id), so the walk starts at the busiest end
  // and, inside a run of equal utilization, keeps going so the lowest id
  // wins — the winner of an ascending strict-preference fold.
  const auto busiest_fit = [&](std::size_t k, int id_lo, int id_hi) {
    const int current = scratch.src_current[k];
    const double vm_ram = scratch.src_ram[k];
    const double vm_mips = scratch.src_mips[k];
    int pick = -1;
    double pick_util = 0.0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const HostRow& row = active[it->pos];
      if (pick >= 0 && row.util < pick_util) break;
      if (row.id == current || row.id < id_lo || row.id >= id_hi) continue;
      if (!row_fits(row, vm_ram)) continue;
      const double post = row.util * row.capacity + vm_mips;
      if (!(post <= kPackCeiling * row.capacity + 1e-9)) continue;
      pick = row.id;
      pick_util = row.util;
    }
    return pick;
  };
  // With a fabric the walk prefers the source's own pod. When the whole
  // range lies in one pod (every domain call of hierarchical Megh), that
  // filter accepts every active host and its global fallback would re-walk
  // the same list, so one unfiltered walk picks the same host.
  const bool pod_walk =
      network != nullptr &&
      network->pod_of(host_lo) != network->pod_of(host_hi - 1);

  // --- targets per source ---
  auto& out = scratch.candidates;
  if (out.capacity() < max_candidates) out.reserve(max_candidates);
  // Sources are unique, so a (vm, host) pair can only repeat inside its own
  // source's run of at most kMaxCandidatesPerSource candidates.
  std::size_t run_begin = 0;
  CandidateGroup group = CandidateGroup::kExploration;
  const auto push_candidate = [&](int vm, int host, int current) {
    for (std::size_t i = run_begin; i < out.size(); ++i) {
      if (out[i].host == host) return;
    }
    add_candidate(out, basis, vm, host, current, group);
  };
  // The emission loop stays serial and in source order: it is the only
  // part that draws from `rng`, so the RNG stream is consumed exactly as
  // the unsharded generator consumed it.
  for (std::size_t k = 0; k < nsrc; ++k) {
    const int vm = sources[k].first;
    const int current = scratch.src_current[k];
    group = sources[k].second;
    run_begin = out.size();
    push_candidate(vm, current, current);  // no-op first

    // PABFD target (power-aware best fit) as a high-quality candidate —
    // except for consolidation sources, whose menu is packing-only.
    if (group != CandidateGroup::kConsolidation &&
        scratch.pabfd_choice[k] >= 0) {
      push_candidate(vm, scratch.pabfd_choice[k], current);
    }

    // Packing target (consolidation move), in-pod preferred when a fabric
    // is attached (short copy path); global fallback.
    int pack = -1;
    if (pod_walk) {
      const int pod_base =
          network->pod_of(current) * network->hosts_per_pod();
      pack = busiest_fit(k, pod_base, pod_base + network->hosts_per_pod());
    }
    if (pack < 0) pack = busiest_fit(k, host_lo, host_hi);
    if (pack >= 0) push_candidate(vm, pack, current);

    // Random feasible targets (spread moves) — offered for overloaded and
    // exploration sources. Consolidation sources get packing moves only,
    // so the consolidation draw never un-packs a host.
    if (group == CandidateGroup::kConsolidation) continue;
    int added = 0;
    const int probes = std::min(domain_width, 4 * kTargetsPerSource);
    for (int i = 0; i < probes && added < kTargetsPerSource; ++i) {
      int h;
      if (network != nullptr && rng.bernoulli(kLocalProbeFraction)) {
        // Network-aware probe: a host from the source's own pod (short
        // migration path on the fabric).
        const int pod = network->pod_of(current);
        const int pod_base = pod * network->hosts_per_pod();
        h = pod_base + static_cast<int>(rng.index(static_cast<std::size_t>(
                           network->hosts_per_pod())));
        if (h >= num_hosts) continue;  // fabric ports beyond the fleet
      } else {
        // Fleet-wide draw, or the domain's host range for a domain call
        // (host_lo == 0 and domain_width == num_hosts otherwise).
        h = host_lo + static_cast<int>(
                          rng.index(static_cast<std::size_t>(domain_width)));
      }
      // Domain calls only target their own range (a pod probe can land
      // outside it when the domain is a topology-free block); no-op for
      // fleet calls.
      if (h < host_lo || h >= host_hi) continue;
      if (h == current) continue;
      if (!target_feasible(dc, host_util, vm, h, kTargetUtilCeiling)) continue;
      push_candidate(vm, h, current);
      ++added;
    }
  }
}

std::vector<CandidateAction> generate_candidates(
    const Datacenter& dc, std::span<const double> host_util, double beta,
    const ActionBasis& basis, const CandidateConfig& config, Rng& rng,
    const FatTreeTopology* network) {
  CandidateScratch scratch;
  generate_candidates(dc, host_util, beta, basis, config, rng, scratch,
                      network);
  return std::move(scratch.candidates);
}

}  // namespace megh
