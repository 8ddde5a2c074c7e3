// Fat-tree data-center network topology (Leiserson fat-trees — the
// paper's Sec. 7 names leveraging them as future work; reference [49]).
//
// A k-ary fat-tree has k pods; each pod holds k/2 edge switches × k/2 hosts
// per edge switch, so the fabric serves k³/4 hosts. Live-migration traffic
// between two hosts crosses
//     0 hops (same host),  2 (same edge switch),
//     4 (same pod, via aggregation),  6 (different pods, via core).
// Aggregation and core tiers are often oversubscribed, so the achievable
// migration bandwidth shrinks with distance — which turns *where* a VM
// migrates into a network decision: a cross-pod move of the same VM takes
// longer and causes more SLA downtime than a same-edge move.
//
// When a topology is attached to SimulationConfig, the engine computes each
// migration's copy time from the source→target path bandwidth instead of
// the flat host NIC rate, and counts per-tier migrations in the snapshots.
// Policies need no code changes: the extra downtime flows into the step
// cost that learning policies already consume (the paper's claim that
// network awareness is "seamlessly accommodated").
#pragma once

#include <memory>

#include "common/error.hpp"

namespace megh {

/// Link speeds of the three fabric tiers (Mbit/s).
inline constexpr double kEdgeLinkMbps = 1000.0;         // host ↔ edge switch
inline constexpr double kAggregationLinkMbps = 1000.0;  // edge ↔ aggregation
inline constexpr double kCoreLinkMbps = 1000.0;         // aggregation ↔ core
static_assert(kEdgeLinkMbps > 0 && kAggregationLinkMbps > 0 &&
                  kCoreLinkMbps > 0,
              "link bandwidths must be positive");

struct NetworkLinkConfig {
  /// Effective contention divisor applied per tier above the edge
  /// (1 = non-blocking fabric; 4 = typical 4:1 oversubscription).
  double oversubscription = 1.0;

  void validate() const {
    MEGH_REQUIRE(oversubscription >= 1.0,
                 "oversubscription must be >= 1 (1 = non-blocking)");
  }
};

class FatTreeTopology {
 public:
  /// k-ary fat-tree (k even, >= 2): serves k³/4 hosts.
  FatTreeTopology(int k, NetworkLinkConfig links = {});

  /// Smallest fat-tree that can host `num_hosts`.
  static FatTreeTopology for_hosts(int num_hosts,
                                   NetworkLinkConfig links = {});

  int k() const { return k_; }
  /// Number of host ports (k³/4).
  int capacity() const { return k_ * k_ * k_ / 4; }
  int num_pods() const { return k_; }
  int hosts_per_edge() const { return k_ / 2; }
  int hosts_per_pod() const { return k_ * k_ / 4; }

  int pod_of(int host) const;
  int edge_switch_of(int host) const;  // global edge-switch index

  /// Switch hops between two hosts: 0 / 2 / 4 / 6.
  int hops(int a, int b) const;

  /// Achievable bandwidth of the migration path (min over traversed
  /// tiers, with oversubscription applied above the edge tier).
  double path_bandwidth_mbps(int a, int b) const;

  /// Live-migration copy time over the path: RAM / path bandwidth.
  double migration_time_s(double ram_mb, int source, int target) const;

  const NetworkLinkConfig& links() const { return links_; }

 private:
  void check_host(int host) const {
    MEGH_ASSERT(host >= 0 && host < capacity(),
                "fat-tree host index out of range");
  }

  int k_;
  NetworkLinkConfig links_;
};

}  // namespace megh
