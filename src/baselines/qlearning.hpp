// Tabular Q-learning baseline (Watkins & Dayan), as discussed in Sec. 2.2.
//
// The paper relegates Q-learning behind MadVM because it requires an
// offline training phase before it can be deployed online and degrades when
// the live workload drifts from the training one. This implementation makes
// that property explicit: `pretrain()` runs the policy in high-exploration
// training mode against a (training) trace; afterwards the policy runs with
// a small exploration rate. The ablation bench contrasts pretrained vs
// untrained deployment.
//
// State: (overloaded-host fraction bucket, mean active-host utilization
// bucket, active-host fraction bucket). Macro-actions: do nothing /
// evacuate the most overloaded host's MMT pick / consolidate the least
// utilized host / both. Reward: −step cost.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/policy.hpp"

namespace megh {

class QLearningPolicy : public MigrationPolicy {
 public:
  // State discretization and learning rates.
  static constexpr int kOverloadBuckets = 5;
  static constexpr int kUtilBuckets = 5;
  static constexpr int kActiveBuckets = 5;
  static constexpr double kAlpha = 0.1;          // learning rate
  static constexpr double kGamma = 0.9;
  static constexpr double kEpsilonTrain = 0.4;   // exploration while training
  static constexpr double kEpsilonRun = 0.02;    // exploration after deployment
  /// Post-placement utilization ceiling for PABFD targets.
  static constexpr double kPlacementCeiling = 0.7;

  explicit QLearningPolicy(std::uint64_t seed = 13);

  std::string name() const override {
    return training_ ? "Q-learning(train)" : "Q-learning";
  }
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override;
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override;
  void observe_cost(double step_cost) override;
  void stats(PolicyStats& out) const override;

  /// Switch between offline-training and deployment exploration rates.
  /// begin() does NOT reset the Q-table, so train-then-deploy works by
  /// running two simulations with the same policy object.
  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  int num_states() const;
  static constexpr int kNumActions = 4;
  double q(int state, int action) const;

 private:
  int encode_state(const StepObservation& obs) const;
  void macro_action(int action, const StepObservation& obs,
                    std::vector<MigrationAction>& out);

  Rng rng_;
  bool training_ = true;
  double beta_ = 0.7;
  std::vector<double> q_;  // [state * kNumActions + action]
  int last_state_ = -1;
  int last_action_ = -1;
  long long updates_ = 0;
};

}  // namespace megh
