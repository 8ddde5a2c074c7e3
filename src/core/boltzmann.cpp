#include "core/boltzmann.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace megh {

BoltzmannSelector::BoltzmannSelector(double temp0, double epsilon)
    : temp_(temp0), epsilon_(epsilon) {
  // Finite too: an infinite Temp0 or epsilon turns the first decay() into
  // inf·0 = NaN, and a NaN temperature zeroes every weight for good.
  MEGH_REQUIRE(std::isfinite(temp0) && temp0 > 0.0,
               "Boltzmann Temp0 must be finite and positive");
  MEGH_REQUIRE(std::isfinite(epsilon) && epsilon >= 0.0,
               "Boltzmann epsilon must be finite and non-negative");
}

void BoltzmannSelector::weights(std::span<const double> q_values,
                                std::vector<double>& out) const {
  MEGH_ASSERT(!q_values.empty(), "Boltzmann weights need at least one action");
  // Non-finite Q-values (a diverged critic, an uninitialized slot) get
  // weight 0 — unselectable — instead of poisoning every weight with NaN:
  // exp(-(NaN - min)) or a NaN min_q would otherwise spread through the
  // whole draw. The min is therefore taken over finite entries only.
  double min_q = std::numeric_limits<double>::infinity();
  for (const double q : q_values) {
    if (std::isfinite(q) && q < min_q) min_q = q;
  }
  if (!std::isfinite(min_q)) {  // no finite Q at all
    out.assign(q_values.size(), 0.0);
    return;
  }
  // Guard against a fully-decayed temperature: exp argument is <= 0, so
  // weights lie in [0, 1]; a tiny temp simply drives non-minimal weights
  // to 0 (greedy behaviour), which is the intended limit.
  const double temp = std::max(temp_, 1e-12);
  out.resize(q_values.size());
  for (std::size_t k = 0; k < q_values.size(); ++k) {
    const double q = q_values[k];
    out[k] = std::isfinite(q) ? std::exp(-(q - min_q) / temp) : 0.0;
  }
}

std::size_t BoltzmannSelector::greedy(std::span<const double> q_values) {
  MEGH_ASSERT(!q_values.empty(), "greedy selection needs at least one action");
  // Minimum over finite entries only: min_element's comparator is not a
  // strict weak ordering in the presence of NaN. Index 0 if none is finite.
  std::size_t best = 0;
  bool found = false;
  for (std::size_t i = 0; i < q_values.size(); ++i) {
    if (!std::isfinite(q_values[i])) continue;
    if (!found || q_values[i] < q_values[best]) {
      best = i;
      found = true;
    }
  }
  return best;
}

void BoltzmannSelector::decay() { temp_ *= std::exp(-epsilon_); }

}  // namespace megh
