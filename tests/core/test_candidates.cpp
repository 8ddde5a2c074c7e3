#include "core/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>

#include "sim/placement.hpp"

namespace megh {
namespace {

struct World {
  Datacenter dc;
  ActionBasis basis;
  std::vector<double> host_util;

  static World make(int hosts, int vms, double util) {
    std::vector<VmSpec> specs(static_cast<std::size_t>(vms),
                              VmSpec{1000.0, 512.0, 100.0});
    Datacenter dc(standard_host_fleet(hosts), specs);
    Rng rng(3);
    place_initial(dc, InitialPlacement::kRoundRobin, rng);
    std::vector<double> demands(static_cast<std::size_t>(vms), util);
    dc.set_demands(demands);
    auto host_util = dc.all_host_utilization();
    return {std::move(dc), ActionBasis(vms, hosts), std::move(host_util)};
  }
};

TEST(CandidatesTest, FullEnumerationCoversEveryFeasiblePair) {
  World w = World::make(3, 4, 0.1);  // d = 12 <= limit → enumerate
  CandidateConfig config;
  Rng rng(1);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  // 4 VMs × 3 hosts, everything feasible at low load.
  EXPECT_EQ(cands.size(), 12u);
  int noops = 0;
  for (const auto& c : cands) {
    if (c.is_noop) {
      ++noops;
      EXPECT_EQ(c.host, w.dc.host_of(c.vm));
    }
    EXPECT_EQ(c.index, w.basis.index(c.vm, c.host));
  }
  EXPECT_EQ(noops, 4);
}

TEST(CandidatesTest, SampledModeAlwaysOffersNoops) {
  World w = World::make(30, 60, 0.1);  // d = 1800 > limit → sampled
  CandidateConfig config;
  Rng rng(1);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  ASSERT_FALSE(cands.empty());
  std::set<int> vms_with_noop;
  std::set<int> vms_seen;
  for (const auto& c : cands) {
    vms_seen.insert(c.vm);
    if (c.is_noop) vms_with_noop.insert(c.vm);
  }
  EXPECT_EQ(vms_with_noop, vms_seen);  // every source has its no-op
}

TEST(CandidatesTest, NoDuplicateIndices) {
  World w = World::make(30, 60, 0.1);
  CandidateConfig config;
  Rng rng(2);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  std::set<std::int64_t> indices;
  for (const auto& c : cands) {
    EXPECT_TRUE(indices.insert(c.index).second) << "duplicate " << c.index;
  }
}

TEST(CandidatesTest, OverloadedHostVmsAreSources) {
  World w = World::make(30, 60, 0.1);
  // Overload host 0 artificially.
  w.host_util[0] = 0.95;
  CandidateConfig config;
  Rng rng(3);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  std::set<int> sources;
  for (const auto& c : cands) sources.insert(c.vm);
  for (int vm : w.dc.vms_on(0)) {
    EXPECT_TRUE(sources.count(vm)) << "overloaded host VM " << vm
                                   << " missing from sources";
  }
  // Overloaded sources are tagged.
  for (const auto& c : cands) {
    if (w.dc.host_of(c.vm) == 0) {
      EXPECT_EQ(c.group, CandidateGroup::kOverloaded);
    }
  }
}

TEST(CandidatesTest, ConsolidationSourcesTaggedAndPackOnly) {
  World w = World::make(30, 60, 0.1);
  CandidateConfig config;
  Rng rng(4);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  int consolidation_moves = 0;
  for (const auto& c : cands) {
    if (c.group != CandidateGroup::kConsolidation || c.is_noop) continue;
    ++consolidation_moves;
    // A consolidation move must target a host at least as utilized as the
    // source (packing direction), under the pack ceiling.
    const double post =
        (w.dc.host_demand_mips(c.host) + w.dc.vm_demand_mips(c.vm)) /
        w.dc.host_spec(c.host).mips;
    EXPECT_LE(post, kPackCeiling + 1e-9);
  }
  EXPECT_GT(consolidation_moves, 0);
}

TEST(CandidatesTest, TargetsRespectRamFeasibility) {
  // Tiny hosts: 4 GB, VMs of 3 GB → at most one per host, so any move
  // candidate must target an empty host.
  std::vector<VmSpec> specs(10, VmSpec{1000.0, 3072.0, 100.0});
  Datacenter dc(standard_host_fleet(20), specs);
  Rng prng(5);
  place_initial(dc, InitialPlacement::kFirstFit, prng);
  std::vector<double> demands(10, 0.1);
  dc.set_demands(demands);
  const auto host_util = dc.all_host_utilization();
  const ActionBasis basis(10, 20);
  CandidateConfig config;
  config.full_enumeration_limit = 0;  // force sampled path
  Rng rng(6);
  const auto cands =
      generate_candidates(dc, host_util, 0.7, basis, config, rng);
  for (const auto& c : cands) {
    if (c.is_noop) continue;
    EXPECT_TRUE(dc.fits(c.vm, c.host));
  }
}

TEST(CandidateTieOrderTest, TiedHostsOrderByIdForSourcesAndPacking) {
  // One VM per host (vm i on host i), so source order is host order.
  // Utilizations are set directly with exact ties: the overloaded pair
  // {25, 11}, the least-utilized trio {9, 2, 5}, the busiest packable trio
  // {20, 13, 27} and 0.2 everywhere else. Both sorts break ties by host id
  // and the packing walk takes the lowest id among the busiest feasible
  // hosts, so the result cannot depend on the std::sort implementation.
  const int hosts = 30;
  std::vector<VmSpec> specs(hosts, VmSpec{1000.0, 512.0, 100.0});
  Datacenter dc(standard_host_fleet(hosts), specs);
  for (int vm = 0; vm < hosts; ++vm) dc.place(vm, vm);
  dc.set_demands(std::vector<double>(hosts, 0.1));
  std::vector<double> host_util(hosts, 0.2);
  for (int h : {25, 11}) host_util[static_cast<std::size_t>(h)] = 0.9;
  for (int h : {9, 2, 5}) host_util[static_cast<std::size_t>(h)] = 0.1;
  for (int h : {20, 13, 27}) host_util[static_cast<std::size_t>(h)] = 0.3;
  for (int h : {4, 17}) host_util[static_cast<std::size_t>(h)] = 0.7;
  const ActionBasis basis(hosts, hosts);
  CandidateConfig config;
  config.full_enumeration_limit = 0;
  Rng rng(1);
  const auto cands =
      generate_candidates(dc, host_util, 0.8, basis, config, rng);

  std::vector<int> noop_vms;
  for (const auto& c : cands) {
    if (c.is_noop) noop_vms.push_back(c.vm);
  }
  // Overloaded sources first, then the kConsolidationSources least-utilized
  // hosts' VMs: the 0.1 trio, then the 0.2 hosts by id. Random sources
  // follow.
  const std::vector<int> selected = {11, 25, 2, 5,  9,  0,  1,  3,  6,
                                     7,  8,  10, 12, 14, 15, 16, 18, 19};
  ASSERT_EQ(selected.size(), 2u + kConsolidationSources);
  ASSERT_GE(noop_vms.size(), selected.size());
  noop_vms.resize(selected.size());
  EXPECT_EQ(noop_vms, selected);
  // Consolidation menus are packing-only: the lowest id of the busiest
  // feasible tie, once per source.
  int packing_moves = 0;
  for (const auto& c : cands) {
    if (c.group != CandidateGroup::kConsolidation || c.is_noop) continue;
    EXPECT_EQ(c.host, 13) << "vm " << c.vm;
    ++packing_moves;
  }
  EXPECT_EQ(packing_moves, kConsolidationSources);
}

/// Positions of `util` in radix order, as generate_candidates ranks its
/// gathered table (keyed in position order, then sorted).
std::vector<std::uint32_t> radix_order(const std::vector<double>& util) {
  std::vector<UtilKey> items;
  std::vector<UtilKey> tmp;
  for (std::size_t i = 0; i < util.size(); ++i) {
    items.push_back(UtilKey{util_sort_key(util[i]),
                            static_cast<std::uint32_t>(i)});
  }
  radix_sort_by_key(items, tmp);
  std::vector<std::uint32_t> order;
  for (const UtilKey& item : items) order.push_back(item.pos);
  return order;
}

/// The same positions under std::sort with the (utilization, id)
/// comparator.
std::vector<std::uint32_t> comparator_order(const std::vector<double>& util) {
  std::vector<std::uint32_t> order(util.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return util[a] < util[b] || (util[a] == util[b] && a < b);
  });
  return order;
}

TEST(CandidateOrderTest, RadixOrderMatchesComparatorSortOnRandomFleets) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  // Half of every fleet is drawn from values that stress the key: exact
  // ties, ±1-ulp neighbours, both zeros, subnormals, the smallest normal,
  // values above 1 and a negative.
  const std::vector<double> pool = {
      0.0,
      -0.0,
      denorm,
      3 * denorm,
      std::numeric_limits<double>::min(),
      0.35,
      std::nextafter(0.35, 0.0),
      std::nextafter(0.35, 1.0),
      0.5,
      1.0,
      std::nextafter(1.0, 0.0),
      std::nextafter(1.0, 2.0),
      1.7,
      3.25,
      -0.25};
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t hosts = 1 + rng.index(700);
    std::vector<double> util(hosts);
    for (double& u : util) {
      u = rng.bernoulli(0.5) ? pool[rng.index(pool.size())]
                             : rng.uniform(0.0, 1.5);
    }
    ASSERT_EQ(radix_order(util), comparator_order(util))
        << "trial " << trial << ", " << hosts << " hosts";
  }
}

TEST(CandidateOrderTest, OneHostAndAllEqualKeepIdOrder) {
  EXPECT_EQ(radix_order({0.4}), std::vector<std::uint32_t>{0});
  for (const double u : {0.0, -0.0, 0.6, 2.0}) {
    const std::vector<double> util(257, u);
    EXPECT_EQ(radix_order(util), comparator_order(util)) << u;
  }
  // Mixed zeros are one tie run, in id order.
  EXPECT_EQ(radix_order({0.0, -0.0, 0.0, -0.0}),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(util_sort_key(-0.0), util_sort_key(0.0));
}

}  // namespace
}  // namespace megh
