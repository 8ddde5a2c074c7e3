#include "sim/power_model.hpp"

#include <utility>

#include "common/error.hpp"

namespace megh {

PowerModel::PowerModel(std::string name,
                       const std::array<double, 11>& watts_at_load,
                       double sleep_watts)
    : name_(std::move(name)), table_(watts_at_load), sleep_watts_(sleep_watts) {
  MEGH_REQUIRE(sleep_watts >= 0.0, "sleep watts must be non-negative");
  for (std::size_t i = 0; i < table_.size(); ++i) {
    MEGH_REQUIRE(table_[i] >= 0.0, "power table entries must be non-negative");
    if (i > 0) {
      MEGH_REQUIRE(table_[i] >= table_[i - 1],
                   "power table must be non-decreasing in load");
    }
  }
}

PowerModel hp_proliant_g4_power() {
  return PowerModel("HP ProLiant ML110 G4",
                    {86.0, 89.4, 92.6, 96.0, 99.5, 102.0, 106.0, 108.0, 112.0,
                     114.0, 117.0});
}

PowerModel hp_proliant_g5_power() {
  return PowerModel("HP ProLiant ML110 G5",
                    {93.7, 97.0, 101.0, 105.0, 110.0, 116.0, 121.0, 125.0,
                     129.0, 133.0, 135.0});
}

}  // namespace megh
