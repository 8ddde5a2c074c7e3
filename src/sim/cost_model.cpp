#include "sim/cost_model.hpp"

#include <algorithm>

#include "sim/datacenter.hpp"

namespace megh {

double datacenter_power_watts(const Datacenter& dc) {
  double total = 0.0;
  for (int h = 0; h < dc.num_hosts(); ++h) {
    const PowerModel& power = dc.host_spec(h).power;
    if (!dc.is_active(h)) {
      total += power.sleep_watts();
      continue;
    }
    total += power.watts(std::min(1.0, dc.host_utilization(h)));
  }
  return total;
}

double interval_energy_cost_usd(const Datacenter& dc, double interval_s) {
  return energy_cost_usd(datacenter_power_watts(dc), interval_s);
}

}  // namespace megh
