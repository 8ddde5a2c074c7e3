// Boltzmann exploration with decaying temperature — the paper's
// PolicyCalculator (Algorithm 2, Sec. 5.1).
//
// Given candidate actions' Q-values (estimated costs-to-go, lower = better),
// each action i receives weight exp(−(Q_i − min Q)/Temp). The temperature
// starts at Temp₀ and decays by exp(−ε) every step, moving the policy from
// exploration toward greedy exploitation (Sec. 6.1 defaults: Temp₀ = 3,
// ε = 0.01; Sec. 6.5 sweeps both).
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"

namespace megh {

class BoltzmannSelector {
 public:
  BoltzmannSelector(double temp0, double epsilon);

  /// Selection weights for the given Q-values (unnormalized, in [0, 1])
  /// into `out`, refilled in place: a caller reusing the buffer across
  /// steps never touches the heap once its capacity has grown to the
  /// candidate-set size. A draw is Rng::weighted_index over them.
  void weights(std::span<const double> q_values,
               std::vector<double>& out) const;

  /// Index of the minimum Q-value (the greedy choice).
  static std::size_t greedy(std::span<const double> q_values);

  /// Temp ← Temp · exp(−ε), called once per step (Algorithm 2 line 2).
  void decay();

  double temperature() const { return temp_; }

  /// Overwrite the current temperature (checkpoint restore).
  void set_temperature(double temp) {
    MEGH_REQUIRE(temp > 0.0, "temperature must be positive");
    temp_ = temp;
  }

 private:
  double temp_;
  double epsilon_;
};

}  // namespace megh
