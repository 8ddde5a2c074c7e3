// Candidate action generation for Megh.
//
// The projected space has d = N × M actions. For small systems Megh scores
// all of them every step; at data-center scale (800 × 1052 ≈ 841k actions)
// that would dominate the per-step time, so — mirroring the sparsity-driven
// data-structure discussion of Sec. 5.2 — the actor restricts each step's
// Boltzmann draw to a candidate set built from the situations Sec. 3.1
// describes Megh acting on:
//   * VMs on overloaded hosts (must be considered for evacuation),
//   * VMs on the least-utilized hosts (consolidation opportunities),
//   * a small random sample of other VMs (persistent exploration),
// each paired with its current host (the no-op answering "when") plus a
// sample of feasible targets including the PABFD choice.
//
// Every candidate's Q-value is still read from the full θ over d, so the
// critic is exact; only the actor's search support is sparsified.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/basis.hpp"
#include "sim/datacenter.hpp"
#include "sim/network.hpp"

namespace megh {

/// The sampled path's fixed sizes (DESIGN.md §2.2). No experiment varies
/// them; a served Init must carry exactly these values.
/// VMs taken from overloaded hosts, most-overloaded hosts first.
inline constexpr int kMaxOverloadedSources = 48;
/// VMs taken from the least-utilized active hosts.
inline constexpr int kConsolidationSources = 16;
/// Uniformly random VMs (persistent exploration).
inline constexpr int kRandomSources = 8;
/// Sampled feasible targets per overloaded or exploration source.
inline constexpr int kTargetsPerSource = 6;
/// A source emits at most its no-op, a PABFD and a packing target, and
/// kTargetsPerSource random targets.
inline constexpr int kMaxCandidatesPerSource = kTargetsPerSource + 3;
/// Post-placement utilization ceiling used when sampling targets
/// (candidates only; the engine itself enforces nothing but RAM).
inline constexpr double kTargetUtilCeiling = 1.0;
/// A "packing" target — the busiest active host that still fits the VM
/// under this post-placement utilization — is offered for every source,
/// giving the learner a consolidation move to evaluate each step.
inline constexpr double kPackCeiling = 0.65;
/// When network-aware with a fabric attached, this fraction of each
/// source's random target probes is drawn from the source's own pod (short,
/// fast migration paths); the rest stay global so cross-pod moves remain
/// learnable.
inline constexpr double kLocalProbeFraction = 0.75;

struct CandidateConfig {
  /// If d = N × M is at most this, enumerate every feasible action instead
  /// of sampling (exact actor).
  std::int64_t full_enumeration_limit = 1'500;
  /// Use the fabric (when the simulation exposes one) to prefer short
  /// migration paths: in-pod packing targets and mostly-local random
  /// probes. Disable to make Megh network-oblivious (ablation).
  bool network_aware = true;
};

/// Restriction of candidate generation to a sub-fleet: one contiguous host
/// range plus the VMs currently placed on it. The hierarchical per-pod
/// Megh runs each pod's generation through the same code path flat Megh
/// uses for the whole fleet — sources, scan ranges, random probes and full
/// enumeration all stay inside [host_begin, host_end), and the caller's
/// Rng is the pod's own stream. A domain spanning the entire fleet (with
/// `vms` = every VM ascending and vm_slot[v] == v) consumes the Rng
/// identically to a domain-free call and produces the same candidate set
/// when the fabric has at most one pod.
struct CandidateDomain {
  int host_begin = 0;
  int host_end = 0;  // exclusive
  /// VMs eligible as sources / enumeration rows: ascending global ids of
  /// every VM hosted inside the range that holds a slot.
  std::span<const int> vms;
  /// vm → dense per-domain slot (< slot_capacity) for the epoch-stamp
  /// dedup array. Fleet-sized and shared across domains; only entries of
  /// VMs hosted inside the range are read. A negative slot marks a VM the
  /// domain has no room for: it is never a source.
  std::span<const std::int32_t> vm_slot;
  int slot_capacity = 0;
};

/// Why a candidate's source VM was selected; also Megh's draw rounds: a
/// draw per overloaded host's candidates, one over the consolidation
/// candidates and one over the whole set (kExploration), per pod and step.
enum class CandidateGroup { kOverloaded, kConsolidation, kExploration };

struct CandidateAction {
  int vm = 0;
  int host = 0;               // == current host ⇒ no-op
  std::int64_t index = 0;     // flat basis index
  bool is_noop = false;
  CandidateGroup group = CandidateGroup::kExploration;
};

/// One host's step-constant values as the sampled path's scans read them,
/// each from the Datacenter accessor expression the feasibility and PABFD
/// tests are written against.
struct HostRow {
  int id = 0;
  double util = 0.0;        // host_util[id]
  double capacity = 0.0;    // HostSpec::mips
  double ram_used = 0.0;    // Datacenter::host_ram_used
  double ram_cap = 0.0;     // HostSpec::ram_mb
  /// PABFD's baseline draw: watts(min(1, util)) when active, the sleep
  /// draw otherwise.
  double base_watts = 0.0;
  const PowerModel* power = nullptr;
};

/// A radix-sort item: an order-preserving utilization key and the position
/// of its row in the gathered table.
struct UtilKey {
  std::uint64_t key = 0;
  std::uint32_t pos = 0;
};

/// Order-preserving integer image of a utilization: a < b ⇔ key(a) <
/// key(b), and −0.0 maps to +0.0's key (`+ 0.0` folds the sign of zero).
/// NaN has no place in the order.
inline std::uint64_t util_sort_key(double util) {
  const auto bits = std::bit_cast<std::uint64_t>(util + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Stable LSD radix sort of `items` by key: 8-bit digits, skipping any
/// digit every key shares. Equal keys keep their input order, so a table
/// gathered in id order comes out in (utilization, id) order — the order
/// std::sort gives under that comparator. `tmp` is working storage (its
/// contents are clobbered); neither vector allocates once both hold
/// items.size() of capacity.
void radix_sort_by_key(std::vector<UtilKey>& items, std::vector<UtilKey>& tmp);

/// Reusable working storage for generate_candidates. One instance per
/// policy, carried across steps: every container keeps its capacity, so a
/// steady-state call performs no heap allocation. `candidates` holds the
/// result of the most recent call.
struct CandidateScratch {
  std::vector<CandidateAction> candidates;
  std::vector<std::pair<int, CandidateGroup>> sources;
  std::vector<int> overloaded_hosts;
  /// The call's active hosts, gathered once per call in ascending id order.
  /// Each PABFD shard folds a contiguous slice of it.
  std::vector<HostRow> active;
  /// Positions into `active` in (utilization, id) order: the consolidation
  /// sources come from the front, the packing walk starts from the back.
  std::vector<UtilKey> order;
  std::vector<UtilKey> order_tmp;
  // Per-VM "already a source" stamps: vm_epoch[vm] == epoch ⇔ seen. An
  // epoch bump invalidates all stamps in O(1).
  std::vector<std::uint32_t> vm_epoch;
  std::uint32_t epoch = 0;
  /// One PABFD fold state per (shard, source): each shard folds the active
  /// hosts of its contiguous range for every source, and a serial merge in
  /// shard order reproduces the full-range fold bit-for-bit (a
  /// strict-preference argmin with first-wins ties — see
  /// generate_candidates). Laid out [shard * num_sources + k] so a shard
  /// writes one contiguous block (no false sharing). The packing target
  /// needs no partials: it is a walk over `order`.
  struct ScanPartial {
    int host = -1;  // best PABFD target in the shard, -1 = none
    double increase = std::numeric_limits<double>::infinity();
  };
  std::vector<ScanPartial> scan_partials;
  // Per-source values hoisted before the sharded scan (reads only;
  // hoisting just keeps the inner loops tight).
  std::vector<int> src_current;
  std::vector<double> src_ram;
  std::vector<double> src_mips;
  // Per-source merged PABFD targets consumed by the emission loop.
  std::vector<int> pabfd_choice;
  /// Cached single-shard plan for unsharded callers (exec == nullptr), so
  /// their steady-state calls stay allocation-free too.
  std::optional<ShardPlan> fallback_plan;
};

/// Build this step's candidate set into `scratch.candidates` (overwritten).
/// `host_util` is the demanded utilization per host; `beta` the overload
/// threshold. Always produces at least the no-op candidates for the
/// selected source VMs. Steady-state calls are allocation-free.
///
/// `exec` (optional) shards the PABFD scan across the engine's step
/// executor. The candidate set is bit-identical at any job count — and to
/// an exec == nullptr call: the PABFD scan is an RNG-free
/// strict-preference fold whose per-shard partials merge exactly,
/// and source selection, the packing walk and the random target probes
/// stay serial in the original order, so the RNG stream is consumed
/// identically.
///
/// `domain` (optional) restricts generation to a sub-fleet (see
/// CandidateDomain). Domain calls never touch `exec` — they already run
/// inside one of its shard workers — and every per-host scratch array is
/// bounded by the domain's width, so a pod-local scratch costs O(pod), not
/// O(fleet). The full-enumeration gate compares |domain.vms| × width
/// (the domain's reachable action count) against the limit.
void generate_candidates(const Datacenter& dc,
                         std::span<const double> host_util, double beta,
                         const ActionBasis& basis,
                         const CandidateConfig& config, Rng& rng,
                         CandidateScratch& scratch,
                         const FatTreeTopology* network = nullptr,
                         const ShardExecutor* exec = nullptr,
                         const CandidateDomain* domain = nullptr);

/// Convenience wrapper (tests, one-shot callers): fresh scratch per call.
std::vector<CandidateAction> generate_candidates(
    const Datacenter& dc, std::span<const double> host_util, double beta,
    const ActionBasis& basis, const CandidateConfig& config, Rng& rng,
    const FatTreeTopology* network = nullptr);

}  // namespace megh
