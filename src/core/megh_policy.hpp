// Megh: the paper's online reinforcement-learning migration policy
// (Algorithm 1 + Algorithm 2) over the flat projected space d = N × M.
//
// Flat Megh is the one-pod configuration of the learner core in
// core/hierarchical_megh.hpp, which holds the whole algorithm — candidate
// scoring, SARSA closing, Boltzmann draws, temperature decay, fault
// recovery and stats. Here the single pod spans the fleet with zero slot
// headroom: slot k is VM k, the pod action index is the flat basis index
// vm·M + h, and delta <= 0 selects δ = N·M.
#pragma once

#include "core/hierarchical_megh.hpp"

namespace megh {

class MeghPolicy : public HierarchicalMeghPolicy {
 public:
  explicit MeghPolicy(const MeghConfig& config = {});

  /// The critic, for tests and the Q-table growth bench (Fig. 7).
  const LspiLearner& learner() const { return pod_learner(0); }
};

}  // namespace megh
