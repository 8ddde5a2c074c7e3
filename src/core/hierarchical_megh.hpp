// Megh's learner core: the paper's online reinforcement-learning migration
// policy (Algorithm 1 + Algorithm 2) — an LSPI critic (core/lspi.hpp), a
// Boltzmann actor (core/boltzmann.hpp) and the candidate generator
// (core/candidates.hpp) — decomposed into per-pod learners.
//
// Per step:
//   1. Build each pod's candidate action set and look up every
//      candidate's Q(a) = θ[a].
//   2. Close the previous step's SARSA transitions: every action taken at
//      t−1 is updated with its share of the observed cost C_t and
//      φ_{π(s_t)} = this step's greedy candidate in its pod (Eq. 10/11).
//   3. Boltzmann-sample up to ⌈max_migration_fraction · N⌉ actions (one per
//      VM), one draw per draw group: each overloaded host's candidates,
//      the consolidation candidates, then the whole candidate set; sampled
//      no-ops answer "don't migrate".
//   4. Decay the temperature (Algorithm 2 line 2).
// The learner never needs a training phase: step 2 runs from the very first
// interval ("learn as you go").
//
// Pods. Flat Megh projects onto d = N × M basis vectors — at cluster scale
// (100k PMs × 1M VMs) that is d ~ 10¹¹, and even the lazily-materialized
// critic pays for it in slot-map address space and in serial decide time.
// The fat tree gives the natural factorization: a pod's VMs migrate mostly
// inside their pod (pack_local, local probes already encode this), so the
// hierarchical policy gives every shard of the step's ShardPlan — a pod on
// a fabric, a 256-host block otherwise — its own learner over the pod-local
// space d_p = cap_p × M_p, where M_p is the pod's host-range width and
// cap_p is a slotted VM capacity (current population plus headroom).
// Total learner state is Σ_p O(N_p × M_p) ≈ d / P instead of O(N × M),
// and every per-pod stage — candidate generation, Q evaluation, the LSPI
// critic update, down-host masking — runs in the pod phase, fanned across
// StepObservation::exec with each learner owned by exactly one shard
// (lock-free, no atomics on the learning path).
//
// The pod phase also lays out each pod's draw groups. A thin serial
// coordinator then spends the single global migration budget (⌈2%·N⌉) in
// one loop — rounds (reactive, consolidation, exploration) × pods
// ascending × the pod's groups in that round, one Boltzmann draw per
// group. Each draw consumes the *owning pod's* RNG stream, and every
// stream is advanced deterministically (generation in the pod phase, draws
// in the serial phase), so decisions are bit-identical at any
// SimulationConfig::jobs.
//
// Flat Megh (MeghPolicy, core/megh_policy.hpp) is the P = 1 case: one pod
// spanning the fleet with zero slot headroom, so cap = N, slot k is VM k,
// the pod action index slot·M + h equals the flat basis index vm·M + h,
// d = N·M (and delta <= 0 means δ = N·M), and the single pod's candidate
// scans fan out over the engine's executor instead of running inside one
// of its shards.
//
// VM churn is handled by per-pod slot maps: a VM migrating into a pod
// takes the smallest free slot (departures recycle theirs), so learner
// dimensions never change at runtime. Only a VM's current pod ever writes
// its global pod/slot entries, keeping the parallel rebuild race-free.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/basis.hpp"
#include "core/boltzmann.hpp"
#include "core/candidates.hpp"
#include "core/lspi.hpp"
#include "sim/network.hpp"
#include "sim/policy.hpp"
#include "sim/policy_stats.hpp"

namespace megh {

/// EMA weight of the advantage baseline (MeghConfig::advantage_baseline).
inline constexpr double kBaselineWeight = 0.05;
/// Sherman–Morrison factor truncation (see LspiLearner): bounds B's fill-in
/// so per-step time stays flat over week-long runs.
inline constexpr int kMaxUpdateSupport = 32;

struct MeghConfig {
  double gamma = 0.5;     // discount factor (Sec. 6.1: 50:50 old vs new)
  double temp0 = 3.0;     // initial Boltzmann temperature (Sec. 6.1)
  double epsilon = 0.01;  // temperature decay rate (Sec. 6.1)
  /// δ in B₀ = (1/δ)·I. The paper sets δ = d, but at d ~ 10⁴-10⁶ that
  /// shrinks every Q-value by 1/d and the Boltzmann weights stay uniform
  /// for the whole run — the critic never influences the actor: at 80 PMs
  /// δ = d decides exactly like a frozen critic (EXPERIMENTS.md, "Extra:
  /// ablations"). δ = 1 keeps the identical algorithm with a usable
  /// signal scale. <= 0 selects the paper's δ = d, per pod (d_p; d = N·M
  /// for flat Megh).
  double delta = 1.0;
  /// Per-step migration budget as a fraction of N (Sec. 6.1: 2%).
  double max_migration_fraction = 0.02;
  /// Subtract an exponential moving average of the step cost before the
  /// critic update (advantage normalization). The paper's Algorithm 1
  /// accumulates raw costs — with always-positive costs every *tried*
  /// action looks worse than an untried one, so exploitation degenerates to
  /// novelty-seeking. A constant baseline only shifts V (Theorem 1/2 are
  /// unaffected asymptotically) but makes the greedy step meaningful.
  /// Disable to run the paper-literal update (ablation bench).
  bool advantage_baseline = true;
  /// When false the critic is frozen: decide() still builds candidates,
  /// reads Q-values and Boltzmann-samples, but the LSPI update is skipped.
  /// No registered experiment sets it; the allocation-count test does
  /// (with the critic frozen, a steady-state step performs zero heap
  /// allocations; with it learning, the only allocations are the Q-table's
  /// own growth — the quantity Fig. 7 plots).
  bool learning_enabled = true;
  CandidateConfig candidates;
  /// Fault recovery (chaos subsystem, src/chaos; docs/RESILIENCE.md):
  /// down-host masking of candidates, and the SARSA remap of failed
  /// actions (aborted, or target down) to the no-op the VM realized. Both
  /// are no-ops in a fault-free run, so a recovering Megh under a
  /// zero-rate FaultPlan makes exactly the decisions a plain Megh makes.
  bool recovery = false;
  std::uint64_t seed = 42;
};

struct HierarchicalMeghConfig {
  /// Learner/actor/recovery settings, applied per pod. `base.delta <= 0`
  /// selects the paper's δ = d_p per-pod initialization.
  MeghConfig base;
  /// The fabric whose pods become the learner shards. May be null: the
  /// policy then shards over kDefaultShardHosts-sized host blocks (same
  /// fallback the step executor uses), which keeps the memory and
  /// parallelism story without a topology.
  std::shared_ptr<const FatTreeTopology> network;
};

/// The one Megh implementation: decide, observe, recovery and stats for
/// any number of pods. Constructed from a HierarchicalMeghConfig it shards
/// the fleet by fabric pod (or host block); MeghPolicy constructs it with
/// one fleet-wide pod.
class HierarchicalMeghPolicy : public MigrationPolicy {
 public:
  explicit HierarchicalMeghPolicy(const HierarchicalMeghConfig& config = {});

  /// "Megh" for the one-pod (flat) layout, "HierMegh" otherwise.
  std::string name() const override { return one_pod_ ? "Megh" : "HierMegh"; }
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override;
  /// Hot path: appends into the engine's reused buffer and runs on
  /// per-pod scratch storage that keeps its capacity across steps. The
  /// per-pod phase (membership, candidate generation, Q gather, LSPI
  /// update, weights) fans out over obs.exec when its plan matches ours —
  /// in the one-pod layout the pod's candidate scans do instead; the draw
  /// coordinator stays serial. Decisions are identical at any job count.
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override;
  void observe_cost(double step_cost) override;
  /// Recovery feedback (no-op unless config.recovery): failed
  /// actions (aborted / down target) have their pending SARSA transition
  /// remapped to the realized no-op (the VM stayed on its source). The
  /// failed move is not re-requested; the next draws decide afresh.
  void observe_outcomes(std::span<const MigrationOutcome> outcomes) override;
  /// Aggregates across pods: qtable_nnz, theta_nnz, lspi_updates,
  /// singular_skips, truncations, b_offdiag_nnz, temperature,
  /// migrations_selected, faults_seen, masked_candidates and
  /// candidates — flat Megh's keys. The hierarchical layout adds "pods",
  /// "slot_overflows" and pod<k>.{qtable_nnz,lspi_updates}.
  /// Every key is interned at begin(); a debug build asserts that stats()
  /// itself interns nothing (the allocation-free-step guarantee).
  void stats(PolicyStats& out) const override;

  int num_pods() const { return static_cast<int>(pods_.size()); }
  const ShardPlan& plan() const { return plan_; }
  const LspiLearner& pod_learner(int pod) const;
  LspiLearner& mutable_pod_learner(int pod);
  double temperature() const { return selector_.temperature(); }
  double cost_baseline() const { return cost_baseline_; }
  bool baseline_initialized() const { return baseline_initialized_; }
  /// Pod host range and slot map, read by tests and the checkpoint writer.
  int pod_host_begin(int pod) const;
  int pod_host_end(int pod) const;
  int pod_slot_capacity(int pod) const;
  /// slot → VM id (-1 = free), valid for slots < pod_slot_capacity(pod).
  std::span<const int> pod_vm_of_slot(int pod) const;

  // --- serving hooks (src/serve): the open SARSA transition, captured by
  // the daemon's snapshots so a recovery mid-step (between Decide and
  // Observe) resumes with the same pending update a live server holds. A
  // checkpoint load clears it; restore it afterwards. ---
  std::span<const std::int64_t> pending_actions(int pod) const;
  double pending_cost() const { return pending_cost_; }
  bool has_pending_cost() const { return has_pending_cost_; }
  long long migrations_selected() const { return total_migrations_selected_; }
  void restore_pending(int pod, std::span<const std::int64_t> actions);
  void restore_pending_cost(double cost, bool has_cost,
                            long long migrations_selected);

  friend void write_megh_policy(std::ostream& out,
                                const HierarchicalMeghPolicy& policy);
  friend void read_megh_policy(std::istream& in,
                               HierarchicalMeghPolicy& policy,
                               const std::string& context);

 protected:
  /// The one-pod layout: a single pod spanning the fleet with zero slot
  /// headroom (flat Megh; see MeghPolicy).
  struct OnePod {};
  HierarchicalMeghPolicy(const MeghConfig& config, OnePod);

 private:
  /// One record per non-no-op action emitted last step, in emission order
  /// (= the engine's outcome order). pending_slot indexes the owning
  /// pod's pending list.
  struct EmittedAction {
    int vm;
    int source;
    int pod;
    std::size_t pending_slot;
  };

  /// One Boltzmann draw's candidates: Pod::draw_idx[begin, end) — one
  /// overloaded host's, or the consolidation sources' — or, in the
  /// kExploration round, the pod's whole candidate set.
  struct DrawGroup {
    CandidateGroup round;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Everything one pod owns. Mutated only by its own shard during the
  /// parallel phase and by the serial coordinator afterwards.
  struct Pod {
    int host_begin = 0;
    int host_end = 0;
    // --- slot map (VM ↔ learner row block) ---
    int cap = 0;        // slot capacity; learner dim = cap * width
    int next_slot = 0;  // slots [0, next_slot) have been handed out
    std::vector<int> vm_of_slot;  // -1 = free
    std::vector<int> free_slots;  // recycled slots, sorted descending
    std::vector<int> members;     // this step's VMs, ascending
    // --- learning state ---
    std::unique_ptr<LspiLearner> learner;
    Rng rng{0};
    std::vector<std::int64_t> pending;  // pod-local action indices
    // --- per-step scratch (all capacity-stable after begin) ---
    CandidateScratch cands;
    std::size_t candidates_generated = 0;  // this step's set, pre-masking
    std::vector<std::int64_t> pod_idx;  // candidate → pod-local index
    std::vector<double> q;
    std::vector<double> weights;
    std::vector<std::vector<std::size_t>> candidates_of_slot;
    std::vector<int> touched_slots;
    std::vector<std::uint8_t> slot_used;
    std::vector<std::size_t> draw_idx;  // candidate indices, by group
    std::vector<DrawGroup> groups;      // this step's, non-empty, in order
    // --- chaos recovery ---
    long long masked_candidates = 0;
    long long slot_overflows = 0;
  };

  std::int64_t pod_index(const Pod& pod, int vm, int host) const {
    const std::int64_t slot = slot_of_vm_[static_cast<std::size_t>(vm)];
    MEGH_ASSERT(slot >= 0 && slot < pod.cap, "VM has no slot in its pod");
    return slot * (pod.host_end - pod.host_begin) + (host - pod.host_begin);
  }

  /// Bucket every placed VM into its pod's member list, ascending.
  void collect_members(const Datacenter& dc);
  /// Size a pod's slot map and slot-indexed scratch to `cap` and clear its
  /// transient state (pending).
  void reset_pod_slots(Pod& pod, int cap);
  void rebuild_membership(Pod& pod, int pod_id, const Datacenter& dc);
  void run_pod_phase(int pod_id, const StepObservation& obs, bool do_update,
                     double share);
  void build_draw_groups(Pod& pod, const StepObservation& obs) const;
  void intern_stat_keys();

  HierarchicalMeghConfig config_;
  bool one_pod_ = false;
  BoltzmannSelector selector_;
  std::unique_ptr<ActionBasis> basis_;  // global indices (dedup/telemetry)
  ShardPlan plan_ = ShardPlan::single(1);  // rebuilt by begin()
  std::vector<Pod> pods_;
  std::vector<std::int32_t> pod_of_host_;  // built by begin()
  // vm → owning pod / slot. Written only by the VM's current pod during
  // the parallel rebuild, so concurrent pod phases never race.
  std::vector<std::int32_t> pod_of_vm_;
  std::vector<std::int32_t> slot_of_vm_;
  double beta_ = 0.7;
  int migration_budget_ = 1;

  double pending_cost_ = 0.0;
  bool has_pending_cost_ = false;
  long long total_migrations_selected_ = 0;
  // Advantage baseline (EMA of observed step costs).
  double cost_baseline_ = 0.0;
  bool baseline_initialized_ = false;

  std::vector<double> draw_weights_;  // one group's gathered weights
  std::vector<EmittedAction> emitted_;
  long long faults_seen_ = 0;

  // Stat keys, interned once at begin(). stats() only reads these.
  std::vector<StatKey> aggregate_keys_;
  std::vector<StatKey> pod_keys_;  // [pod * 2 + {nnz, updates}]
};

}  // namespace megh
