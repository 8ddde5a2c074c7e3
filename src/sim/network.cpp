#include "sim/network.hpp"

#include <algorithm>

#include "common/string_util.hpp"
#include "sim/host_spec.hpp"

namespace megh {

FatTreeTopology::FatTreeTopology(int k, NetworkLinkConfig links)
    : k_(k), links_(links) {
  MEGH_REQUIRE(k >= 2 && k % 2 == 0, "fat-tree k must be even and >= 2");
  links_.validate();
}

FatTreeTopology FatTreeTopology::for_hosts(int num_hosts,
                                           NetworkLinkConfig links) {
  MEGH_REQUIRE(num_hosts > 0, "fat-tree needs at least one host");
  int k = 2;
  while (k * k * k / 4 < num_hosts) k += 2;
  return FatTreeTopology(k, links);
}

int FatTreeTopology::pod_of(int host) const {
  check_host(host);
  return host / hosts_per_pod();
}

int FatTreeTopology::edge_switch_of(int host) const {
  check_host(host);
  return host / hosts_per_edge();
}

int FatTreeTopology::hops(int a, int b) const {
  check_host(a);
  check_host(b);
  if (a == b) return 0;
  if (edge_switch_of(a) == edge_switch_of(b)) return 2;
  if (pod_of(a) == pod_of(b)) return 4;
  return 6;
}

double FatTreeTopology::path_bandwidth_mbps(int a, int b) const {
  switch (hops(a, b)) {
    case 0:
      return kEdgeLinkMbps;  // degenerate (no copy needed)
    case 2:
      return kEdgeLinkMbps;
    case 4:
      return std::min(kEdgeLinkMbps,
                      kAggregationLinkMbps / links_.oversubscription);
    default:
      return std::min({kEdgeLinkMbps,
                       kAggregationLinkMbps / links_.oversubscription,
                       kCoreLinkMbps /
                           (links_.oversubscription * links_.oversubscription)});
  }
}

double FatTreeTopology::migration_time_s(double ram_mb, int source,
                                         int target) const {
  return ::megh::migration_time_s(ram_mb, path_bandwidth_mbps(source, target));
}

}  // namespace megh
