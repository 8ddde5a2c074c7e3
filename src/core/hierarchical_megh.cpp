#include "core/hierarchical_megh.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>

#include "common/error.hpp"
#include "sim/sharding.hpp"
#include "telemetry/telemetry.hpp"

namespace megh {

namespace {

/// Slot headroom per pod: cap_p = N_p(begin) + max(min, ⌈frac·N_p⌉). A
/// pod whose population outgrows cap_p stops offering the overflow VMs as
/// candidates until churn frees slots (counted in `slot_overflows`); the
/// engine can still evacuate them.
constexpr int kPodSlotHeadroomMin = 16;
constexpr double kPodSlotHeadroomFraction = 0.125;
/// Emit pod<k>.* stat keys only for the first this many pods; the 13
/// aggregate keys are always emitted.
constexpr int kPodStatsLimit = 16;
static_assert(13 + 2 * kPodStatsLimit <= PolicyStats::kCapacity,
              "the per-pod stat keys must fit the PolicyStats table");

/// Decorrelate the per-pod RNG streams while keeping pod 0's stream on the
/// configured seed — the one-pod layout draws exactly the seed's stream.
std::uint64_t pod_seed(std::uint64_t seed, int pod) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(pod));
}

/// The learner and the selector check their own settings at construction;
/// this is the one they do not read. NaN fails it too.
void validate(const MeghConfig& config) {
  MEGH_REQUIRE(config.max_migration_fraction > 0.0 &&
                   config.max_migration_fraction <= 1.0,
               "Megh: max_migration_fraction must lie in (0, 1]");
}

}  // namespace

HierarchicalMeghPolicy::HierarchicalMeghPolicy(
    const HierarchicalMeghConfig& config)
    : config_(config),
      selector_(config.base.temp0, config.base.epsilon) {
  validate(config.base);
}

HierarchicalMeghPolicy::HierarchicalMeghPolicy(const MeghConfig& config,
                                               OnePod)
    : one_pod_(true), selector_(config.temp0, config.epsilon) {
  validate(config);
  config_.base = config;
}

void HierarchicalMeghPolicy::begin(const Datacenter& dc,
                                   const CostConfig& cost,
                                   double interval_s) {
  (void)interval_s;
  basis_ = std::make_unique<ActionBasis>(dc.num_vms(), dc.num_hosts());
  plan_ = one_pod_ ? ShardPlan::single(dc.num_hosts())
                   : make_step_shards(config_.network.get(), dc.num_hosts());
  beta_ = cost.beta_overload;
  migration_budget_ = std::max(
      1, static_cast<int>(std::ceil(config_.base.max_migration_fraction *
                                    dc.num_vms())));
  pod_of_vm_.assign(static_cast<std::size_t>(dc.num_vms()), -1);
  slot_of_vm_.assign(static_cast<std::size_t>(dc.num_vms()), -1);
  pod_of_host_.resize(static_cast<std::size_t>(dc.num_hosts()));
  for (int p = 0; p < plan_.num_shards(); ++p) {
    std::fill(pod_of_host_.begin() + plan_.shard_begin(p),
              pod_of_host_.begin() + plan_.shard_end(p), p);
  }

  pods_.clear();
  pods_.resize(static_cast<std::size_t>(plan_.num_shards()));
  for (int p = 0; p < plan_.num_shards(); ++p) {
    pods_[static_cast<std::size_t>(p)].host_begin = plan_.shard_begin(p);
    pods_[static_cast<std::size_t>(p)].host_end = plan_.shard_end(p);
  }
  collect_members(dc);
  for (int p = 0; p < plan_.num_shards(); ++p) {
    Pod& pod = pods_[static_cast<std::size_t>(p)];
    const int population = static_cast<int>(pod.members.size());
    const int headroom = std::max(
        kPodSlotHeadroomMin,
        static_cast<int>(std::ceil(kPodSlotHeadroomFraction * population)));
    // The one-pod layout holds every VM of the fleet and nothing else.
    reset_pod_slots(pod, one_pod_ ? dc.num_vms()
                                  : population + std::max(1, headroom));
    pod.next_slot = 0;
    pod.free_slots.clear();
    // Ascending initial assignment: in a fleet-wide pod slot k is VM k,
    // making the pod action index equal the flat basis index.
    for (int vm : pod.members) {
      const int slot = pod.next_slot++;
      pod.vm_of_slot[static_cast<std::size_t>(slot)] = vm;
      pod_of_vm_[static_cast<std::size_t>(vm)] = p;
      slot_of_vm_[static_cast<std::size_t>(vm)] = slot;
    }
    pod.learner = std::make_unique<LspiLearner>(
        static_cast<std::int64_t>(pod.cap) *
            static_cast<std::int64_t>(pod.host_end - pod.host_begin),
        config_.base.gamma, config_.base.delta, kMaxUpdateSupport);
    pod.rng = Rng(pod_seed(config_.base.seed, p));
    pod.pending.clear();
    // Each draw group spends a budget unit for <= 1 action.
    pod.pending.reserve(static_cast<std::size_t>(migration_budget_));
    // A reactive group per host at most, then consolidation and the set.
    pod.groups.reserve(
        static_cast<std::size_t>(pod.host_end - pod.host_begin) + 2);
    pod.masked_candidates = 0;
    pod.slot_overflows = 0;
  }

  has_pending_cost_ = false;
  total_migrations_selected_ = 0;
  cost_baseline_ = 0.0;
  baseline_initialized_ = false;
  emitted_.clear();
  emitted_.reserve(static_cast<std::size_t>(migration_budget_));
  faults_seen_ = 0;
  intern_stat_keys();
}

void HierarchicalMeghPolicy::collect_members(const Datacenter& dc) {
  for (Pod& pod : pods_) pod.members.clear();
  // One ascending pass over VM ids keeps every member list sorted.
  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    const int host = dc.host_of(vm);
    if (host == kUnplaced) continue;
    pods_[static_cast<std::size_t>(pod_of_host_[static_cast<std::size_t>(
              host)])]
        .members.push_back(vm);
  }
}

void HierarchicalMeghPolicy::reset_pod_slots(Pod& pod, int cap) {
  pod.cap = cap;
  pod.vm_of_slot.assign(static_cast<std::size_t>(cap), -1);
  // Reserving a source's most candidates up front means a slot first
  // selected deep into the run still allocates nothing.
  pod.candidates_of_slot.assign(static_cast<std::size_t>(cap), {});
  for (std::vector<std::size_t>& list : pod.candidates_of_slot) {
    list.reserve(kMaxCandidatesPerSource);
  }
  pod.slot_used.assign(static_cast<std::size_t>(cap), 0);
  pod.touched_slots.clear();
  pod.touched_slots.reserve(static_cast<std::size_t>(cap));
  // Transient state does not survive a re-slotting.
  pod.pending.clear();
}

void HierarchicalMeghPolicy::rebuild_membership(Pod& pod, int pod_id,
                                                const Datacenter& dc) {
  // Free the slots of departed VMs. Only pod-local state is touched: the
  // VM's new pod owns (and rewrites) its global pod/slot entries, so two
  // pod phases never write the same word.
  for (int slot = 0; slot < pod.next_slot; ++slot) {
    const int vm = pod.vm_of_slot[static_cast<std::size_t>(slot)];
    if (vm < 0) continue;
    const int host = dc.host_of(vm);
    if (host < pod.host_begin || host >= pod.host_end) {
      pod.vm_of_slot[static_cast<std::size_t>(slot)] = -1;
      pod.free_slots.push_back(slot);
    }
  }
  // Descending order so pop_back() hands out the smallest slot first —
  // deterministic reuse independent of departure order.
  std::sort(pod.free_slots.begin(), pod.free_slots.end(),
            std::greater<int>());
  // Assign slots to immigrants; members without a slot (cap exhausted) are
  // dropped from the candidate domain until churn frees one.
  std::vector<int>& members = pod.members;
  std::size_t w = 0;
  for (int vm : members) {
    const std::int32_t cur_slot = slot_of_vm_[static_cast<std::size_t>(vm)];
    const bool resident =
        pod_of_vm_[static_cast<std::size_t>(vm)] == pod_id &&
        cur_slot >= 0 &&
        pod.vm_of_slot[static_cast<std::size_t>(cur_slot)] == vm;
    if (resident) {
      members[w++] = vm;
      continue;
    }
    int slot = -1;
    if (!pod.free_slots.empty()) {
      slot = pod.free_slots.back();
      pod.free_slots.pop_back();
    } else if (pod.next_slot < pod.cap) {
      slot = pod.next_slot++;
    }
    // The VM's current pod owns its global entries either way; a slotless
    // one gets slot -1, which keeps it out of the candidate domain.
    pod_of_vm_[static_cast<std::size_t>(vm)] = pod_id;
    slot_of_vm_[static_cast<std::size_t>(vm)] = slot;
    if (slot < 0) {
      ++pod.slot_overflows;
      continue;
    }
    pod.vm_of_slot[static_cast<std::size_t>(slot)] = vm;
    members[w++] = vm;
  }
  members.resize(w);
}

void HierarchicalMeghPolicy::run_pod_phase(int pod_id,
                                           const StepObservation& obs,
                                           bool do_update, double share) {
  MEGH_TRACE_SCOPE("megh.pod_phase");
  Pod& pod = pods_[static_cast<std::size_t>(pod_id)];
  const Datacenter& dc = *obs.dc;
  // A fleet-wide pod never gains or loses a VM: the one-pod slot map
  // (slot k = VM k) stays as begin() built it.
  if (!one_pod_) rebuild_membership(pod, pod_id, dc);

  std::vector<CandidateAction>& cands = pod.cands.candidates;
  if (pod.members.empty()) {
    // A fully evacuated pod has nothing to decide; its pending transitions
    // (if any) have no candidate set to close against, so they are dropped.
    cands.clear();
    pod.candidates_generated = 0;
    pod.pending.clear();
    build_draw_groups(pod, obs);  // none
    return;
  }

  if (one_pod_) {
    // The pod is the fleet and slot k is VM k, so the fleet-wide call is
    // the pod's call — and, the lone pod running on the caller's thread,
    // its scans fan out over the engine's executor.
    generate_candidates(dc, obs.host_util, beta_, *basis_,
                        config_.base.candidates, pod.rng, pod.cands,
                        obs.network, obs.exec);
  } else {
    CandidateDomain domain;
    domain.host_begin = pod.host_begin;
    domain.host_end = pod.host_end;
    domain.vms = pod.members;
    domain.vm_slot = slot_of_vm_;
    domain.slot_capacity = pod.cap;
    generate_candidates(dc, obs.host_util, beta_, *basis_,
                        config_.base.candidates, pod.rng, pod.cands,
                        obs.network, nullptr, &domain);
  }
  pod.candidates_generated = cands.size();

  // Mask candidates that target a down host: the engine would reject
  // them, and a draw spent on one both wastes migration budget and poisons
  // the SARSA transition with a move that cannot happen. No-ops survive,
  // so "stay put" remains drawable for every source VM.
  if (config_.base.recovery && !obs.host_down.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!cands[i].is_noop &&
          obs.host_down[static_cast<std::size_t>(cands[i].host)] != 0) {
        ++pod.masked_candidates;
        continue;
      }
      cands[w++] = cands[i];
    }
    cands.resize(w);
  }

  // Pod-local action indices and Q-values. One batched gather scores the
  // whole candidate set; the per-candidate slot-map misses overlap instead
  // of serializing.
  std::vector<std::int64_t>& pod_idx = pod.pod_idx;
  std::vector<double>& q = pod.q;
  pod_idx.clear();
  pod_idx.reserve(cands.capacity());
  for (const CandidateAction& c : cands) {
    pod_idx.push_back(pod_index(pod, c.vm, c.host));
  }
  q.reserve(cands.capacity());
  q.resize(cands.size());
  pod.learner->q_values(pod_idx, q);

  // Close the previous step's transitions: φ_b = this pod's greedy action
  // at the state we have just arrived in. All pending actions share the
  // same b, so the batched kernel extracts B.row(b) once.
  if (do_update && !pod.pending.empty() && !cands.empty()) {
    const std::int64_t b = pod_idx[BoltzmannSelector::greedy(q)];
    pod.learner->update_batch(pod.pending, share, b);
    // θ changed; refresh the candidates' Q-values before acting on them.
    pod.learner->q_values(pod_idx, q);
  }
  pod.pending.clear();

  // Boltzmann weights (selector reads are const and the decay is serial,
  // so the shared selector is safe here) and the slot → candidates index,
  // so excluding a chosen VM's remaining candidates is O(its candidates).
  // Only the entries dirtied by the previous step are reset.
  pod.weights.reserve(cands.capacity());
  selector_.weights(q, pod.weights);
  for (int slot : pod.touched_slots) {
    pod.candidates_of_slot[static_cast<std::size_t>(slot)].clear();
    pod.slot_used[static_cast<std::size_t>(slot)] = 0;
  }
  pod.touched_slots.clear();
  for (std::size_t j = 0; j < cands.size(); ++j) {
    const std::int32_t slot =
        slot_of_vm_[static_cast<std::size_t>(cands[j].vm)];
    std::vector<std::size_t>& list =
        pod.candidates_of_slot[static_cast<std::size_t>(slot)];
    if (list.empty()) pod.touched_slots.push_back(slot);
    list.push_back(j);
  }
  build_draw_groups(pod, obs);
}

void HierarchicalMeghPolicy::build_draw_groups(
    Pod& pod, const StepObservation& obs) const {
  // Reactive (Sec. 3.1): one group per overloaded host, hosts ascending,
  // then the consolidation candidates, then the whole set. Groups keep
  // their no-ops, so "when to migrate" stays learned; empty groups are
  // left out, as they cost no budget.
  const std::vector<CandidateAction>& cands = pod.cands.candidates;
  const auto host_of = [&](std::size_t j) {
    return obs.dc->host_of(cands[j].vm);
  };
  std::vector<std::size_t>& idx = pod.draw_idx;
  idx.clear();
  idx.reserve(2 * cands.capacity());
  pod.groups.clear();
  for (std::size_t j = 0; j < cands.size(); ++j) {
    const int h = host_of(j);
    if (h >= pod.host_begin && h < pod.host_end &&
        obs.host_util[static_cast<std::size_t>(h)] > beta_) {
      idx.push_back(j);
    }
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return host_of(a) < host_of(b) || (host_of(a) == host_of(b) && a < b);
  });
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (k == 0 || host_of(idx[k]) != host_of(idx[k - 1])) {
      pod.groups.push_back({CandidateGroup::kOverloaded, k, k});
    }
    pod.groups.back().end = k + 1;
  }
  const std::size_t consolidation = idx.size();
  for (std::size_t j = 0; j < cands.size(); ++j) {
    if (cands[j].group == CandidateGroup::kConsolidation) idx.push_back(j);
  }
  if (idx.size() > consolidation) {
    pod.groups.push_back(
        {CandidateGroup::kConsolidation, consolidation, idx.size()});
  }
  if (!cands.empty()) pod.groups.push_back({CandidateGroup::kExploration});
}

void HierarchicalMeghPolicy::decide_into(const StepObservation& obs,
                                         std::vector<MigrationAction>& out) {
  MEGH_REQUIRE(basis_ != nullptr, "Megh::decide before begin()");
  MEGH_TRACE_SCOPE("megh.decide");
  const Datacenter& dc = *obs.dc;
  const bool recovery = config_.base.recovery;

  // The step cost is shared over every pending transition, fleet-wide.
  // The baseline EMA advances exactly when an update actually runs.
  std::size_t total_pending = 0;
  for (const Pod& pod : pods_) total_pending += pod.pending.size();
  bool do_update = false;
  double share = 0.0;
  if (config_.base.learning_enabled && has_pending_cost_ &&
      total_pending > 0) {
    double effective_cost = pending_cost_;
    if (config_.base.advantage_baseline) {
      if (!baseline_initialized_) {
        cost_baseline_ = pending_cost_;
        baseline_initialized_ = true;
      }
      effective_cost = pending_cost_ - cost_baseline_;
      cost_baseline_ += kBaselineWeight * (pending_cost_ - cost_baseline_);
    }
    share = effective_cost / static_cast<double>(total_pending);
    do_update = true;
  }
  has_pending_cost_ = false;
  if (recovery) emitted_.clear();

  // Pod phase: one shard per pod, each owning its learner, when the
  // engine's plan is ours; otherwise serially on the caller's thread.
  if (!one_pod_) collect_members(dc);
  if (!one_pod_ && obs.exec != nullptr && obs.exec->plan() == plan_) {
    obs.exec->for_shards(
        [&](int s) { run_pod_phase(s, obs, do_update, share); });
  } else {
    for (int p = 0; p < num_pods(); ++p) {
      run_pod_phase(p, obs, do_update, share);
    }
  }

  // Serial coordinator: all Boltzmann draws, in fixed order, against the
  // single global budget. Each draw consumes the owning pod's RNG (already
  // advanced by its generation phase), so the schedule is deterministic at
  // any job count.
  MEGH_TRACE_SCOPE("megh.coordinate");
  const auto take = [&](Pod& pod, int pod_id, std::size_t j) {
    const CandidateAction& c = pod.cands.candidates[j];
    const std::int32_t slot =
        slot_of_vm_[static_cast<std::size_t>(c.vm)];
    std::uint8_t& used = pod.slot_used[static_cast<std::size_t>(slot)];
    if (used == 0) {
      used = 1;
      pod.pending.push_back(pod.pod_idx[j]);
      if (!c.is_noop) {
        out.push_back(MigrationAction{c.vm, c.host});
        ++total_migrations_selected_;
        if (recovery) {
          emitted_.push_back(EmittedAction{c.vm, dc.host_of(c.vm), pod_id,
                                           pod.pending.size() - 1});
        }
      }
    }
    // Remove every candidate of this VM from further draws.
    for (std::size_t k :
         pod.candidates_of_slot[static_cast<std::size_t>(slot)]) {
      pod.weights[k] = 0.0;
    }
  };

  int budget = migration_budget_;

  // One draw per group: rounds × pods ascending × the pod's groups in the
  // round, so overload response has first claim on the budget, in global
  // host order. A group whose weights are all zero (its VMs already used,
  // or underflow) spends its unit without a draw.
  for (const CandidateGroup round :
       {CandidateGroup::kOverloaded, CandidateGroup::kConsolidation,
        CandidateGroup::kExploration}) {
    for (int p = 0; p < num_pods() && budget > 0; ++p) {
      Pod& pod = pods_[static_cast<std::size_t>(p)];
      draw_weights_.reserve(pod.cands.candidates.capacity());
      for (const DrawGroup& group : pod.groups) {
        if (group.round != round) continue;
        if (budget <= 0) break;
        const bool whole_set = round == CandidateGroup::kExploration;
        std::span<const double> w = pod.weights;
        if (!whole_set) {
          draw_weights_.clear();
          for (std::size_t k = group.begin; k < group.end; ++k) {
            draw_weights_.push_back(pod.weights[pod.draw_idx[k]]);
          }
          w = draw_weights_;
        }
        --budget;
        if (std::none_of(w.begin(), w.end(),
                         [](double x) { return x > 0.0; })) {
          continue;
        }
        const std::size_t k = pod.rng.weighted_index(w);
        take(pod, p, whole_set ? k : pod.draw_idx[group.begin + k]);
      }
    }
  }

  // Temperature decay (once per step).
  selector_.decay();
}

void HierarchicalMeghPolicy::observe_cost(double step_cost) {
  pending_cost_ = step_cost;
  has_pending_cost_ = true;
}

void HierarchicalMeghPolicy::observe_outcomes(
    std::span<const MigrationOutcome> outcomes) {
  if (!config_.base.recovery) return;
  // One verdict per emitted action, in emission order (engine contract).
  MEGH_ASSERT(outcomes.size() == emitted_.size(),
              "outcome feedback must match the emitted action list");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const MigrationOutcome& o = outcomes[i];
    if (o.verdict != MigrationVerdict::kAborted &&
        o.verdict != MigrationVerdict::kTargetDown) {
      continue;
    }
    const EmittedAction& e = emitted_[i];
    Pod& pod = pods_[static_cast<std::size_t>(e.pod)];
    ++faults_seen_;
    // The realized transition kept the VM on its source (inside pod
    // e.pod, so its slot is still valid): remap the pending SARSA action
    // to the no-op so the critic learns from what actually happened
    // (including the fault's cost), not from a move that never landed.
    pod.pending[e.pending_slot] = pod_index(pod, e.vm, e.source);
  }
}

void HierarchicalMeghPolicy::intern_stat_keys() {
  // The first eleven are flat Megh's keys; the one-pod layout stops there.
  static constexpr const char* kAggregates[] = {
      "qtable_nnz",     "theta_nnz",           "lspi_updates",
      "singular_skips", "truncations",         "b_offdiag_nnz",
      "temperature",    "migrations_selected", "faults_seen",
      "masked_candidates", "candidates",
      "pods",           "slot_overflows"};
  const std::size_t emitted = one_pod_ ? 11 : std::size(kAggregates);
  aggregate_keys_.clear();
  for (std::size_t k = 0; k < emitted; ++k) {
    aggregate_keys_.push_back(StatKey::intern(kAggregates[k]));
  }
  pod_keys_.clear();
  const int pods_with_keys =
      one_pod_ ? 0 : std::min(num_pods(), kPodStatsLimit);
  pod_keys_.reserve(static_cast<std::size_t>(pods_with_keys) * 2);
  for (int p = 0; p < pods_with_keys; ++p) {
    const std::string prefix = "pod" + std::to_string(p) + ".";
    pod_keys_.push_back(StatKey::intern(prefix + "qtable_nnz"));
    pod_keys_.push_back(StatKey::intern(prefix + "lspi_updates"));
  }
}

void HierarchicalMeghPolicy::stats(PolicyStats& out) const {
  if (aggregate_keys_.empty()) return;  // not begun
#ifndef NDEBUG
  // The allocation-free-step guarantee: every key this method writes was
  // interned at begin(); a per-step stats() call must not grow the
  // process-wide registry.
  const int interned_before = StatKey::interned_count();
#endif
  double qtable_nnz = 0.0, theta_nnz = 0.0, lspi_updates = 0.0;
  double singular_skips = 0.0, truncations = 0.0, b_offdiag = 0.0;
  double masked = 0.0, candidates = 0.0, overflows = 0.0;
  for (const Pod& pod : pods_) {
    if (pod.learner == nullptr) continue;
    qtable_nnz += static_cast<double>(pod.learner->qtable_nnz());
    theta_nnz += static_cast<double>(pod.learner->theta_nnz());
    lspi_updates += static_cast<double>(pod.learner->updates());
    // A degenerate Sherman–Morrison denominator silently skips the B
    // update; surface it (plus truncation pressure and B fill-in) so
    // snapshots show *why* the critic stalls instead of hiding it.
    singular_skips += static_cast<double>(pod.learner->singular_skips());
    truncations += static_cast<double>(pod.learner->truncations());
    b_offdiag += static_cast<double>(pod.learner->B().offdiag_nnz());
    masked += static_cast<double>(pod.masked_candidates);
    candidates += static_cast<double>(pod.candidates_generated);
    overflows += static_cast<double>(pod.slot_overflows);
  }
  // Recovery counters stay 0 when recovery is disabled or the run is
  // fault-free.
  const double values[] = {qtable_nnz,
                           theta_nnz,
                           lspi_updates,
                           singular_skips,
                           truncations,
                           b_offdiag,
                           selector_.temperature(),
                           static_cast<double>(total_migrations_selected_),
                           static_cast<double>(faults_seen_),
                           masked,
                           candidates,
                           static_cast<double>(num_pods()),
                           overflows};
  for (std::size_t k = 0; k < aggregate_keys_.size(); ++k) {
    out.set(aggregate_keys_[k], values[k]);
  }
  const int pods_with_keys = static_cast<int>(pod_keys_.size()) / 2;
  for (int p = 0; p < pods_with_keys; ++p) {
    const Pod& pod = pods_[static_cast<std::size_t>(p)];
    out.set(pod_keys_[static_cast<std::size_t>(p * 2)],
            pod.learner != nullptr
                ? static_cast<double>(pod.learner->qtable_nnz())
                : 0.0);
    out.set(pod_keys_[static_cast<std::size_t>(p * 2 + 1)],
            pod.learner != nullptr
                ? static_cast<double>(pod.learner->updates())
                : 0.0);
  }
#ifndef NDEBUG
  MEGH_ASSERT(StatKey::interned_count() == interned_before,
              "Megh stat keys must be interned at begin(), not per step");
#endif
}

const LspiLearner& HierarchicalMeghPolicy::pod_learner(int pod) const {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(),
               "pod index out of range (learner not initialized before "
               "begin())");
  return *pods_[static_cast<std::size_t>(pod)].learner;
}

LspiLearner& HierarchicalMeghPolicy::mutable_pod_learner(int pod) {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(),
               "pod index out of range (learner not initialized before "
               "begin())");
  return *pods_[static_cast<std::size_t>(pod)].learner;
}

int HierarchicalMeghPolicy::pod_host_begin(int pod) const {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(), "pod index out of range");
  return pods_[static_cast<std::size_t>(pod)].host_begin;
}

int HierarchicalMeghPolicy::pod_host_end(int pod) const {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(), "pod index out of range");
  return pods_[static_cast<std::size_t>(pod)].host_end;
}

int HierarchicalMeghPolicy::pod_slot_capacity(int pod) const {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(), "pod index out of range");
  return pods_[static_cast<std::size_t>(pod)].cap;
}

std::span<const int> HierarchicalMeghPolicy::pod_vm_of_slot(int pod) const {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(), "pod index out of range");
  return pods_[static_cast<std::size_t>(pod)].vm_of_slot;
}

std::span<const std::int64_t> HierarchicalMeghPolicy::pending_actions(
    int pod) const {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(), "pod index out of range");
  return pods_[static_cast<std::size_t>(pod)].pending;
}

void HierarchicalMeghPolicy::restore_pending(
    int pod, std::span<const std::int64_t> actions) {
  MEGH_REQUIRE(pod >= 0 && pod < num_pods(), "pod index out of range");
  Pod& p = pods_[static_cast<std::size_t>(pod)];
  const std::int64_t dim = p.learner->dim();
  for (std::int64_t a : actions) {
    MEGH_REQUIRE(a >= 0 && a < dim, "pending action out of range");
  }
  p.pending.assign(actions.begin(), actions.end());
}

void HierarchicalMeghPolicy::restore_pending_cost(
    double cost, bool has_cost, long long migrations_selected) {
  pending_cost_ = cost;
  has_pending_cost_ = has_cost;
  total_migrations_selected_ = migrations_selected;
}

}  // namespace megh
