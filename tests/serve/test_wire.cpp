// Wire-codec round trips and malformed-payload rejection for the
// megh_serve protocol (serve/wire.hpp).
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/host_spec.hpp"

namespace megh::serve {
namespace {

InitRequest sample_init() {
  InitRequest req;
  req.interval_s = 300.0;
  req.cost.beta_overload = 0.375;
  req.cost.sla_accounting = SlaAccounting::kCumulative;
  req.config.seed = 123456789;
  req.config.candidates.network_aware = true;
  req.has_network = true;
  req.network_k = 4;
  req.links.oversubscription = 4.0;
  req.hosts = standard_host_fleet(4);
  Rng rng(3);
  req.vms = sample_vm_fleet(6, rng);
  req.host_vms = {{0, 3}, {1}, {4, 2, 5}, {}};
  return req;
}

TEST(WireTest, InitRoundTripIsExact) {
  const InitRequest req = sample_init();
  const InitRequest out = decode_init(encode_init(req));
  EXPECT_EQ(out.interval_s, req.interval_s);
  EXPECT_EQ(out.cost.beta_overload, req.cost.beta_overload);
  EXPECT_EQ(out.cost.sla_accounting, req.cost.sla_accounting);
  EXPECT_EQ(out.config.seed, req.config.seed);
  EXPECT_TRUE(out.has_network);
  EXPECT_EQ(out.network_k, 4);
  EXPECT_EQ(out.links.oversubscription, 4.0);
  ASSERT_EQ(out.hosts.size(), req.hosts.size());
  for (std::size_t h = 0; h < req.hosts.size(); ++h) {
    EXPECT_EQ(out.hosts[h].mips, req.hosts[h].mips);
    EXPECT_EQ(out.hosts[h].ram_mb, req.hosts[h].ram_mb);
    EXPECT_EQ(out.hosts[h].power.name(), req.hosts[h].power.name());
    EXPECT_EQ(out.hosts[h].power.table(), req.hosts[h].power.table());
  }
  ASSERT_EQ(out.vms.size(), req.vms.size());
  EXPECT_EQ(out.vms[2].mips, req.vms[2].mips);
  EXPECT_EQ(out.host_vms, req.host_vms);
}

TEST(WireTest, InitDecodeDisablesServerSideRecovery) {
  InitRequest req = sample_init();
  req.config.recovery = true;
  const InitRequest out = decode_init(encode_init(req));
  // The daemon's own WAL is the recovery mechanism; the policy-internal
  // fault-recovery machinery must never run inside the server.
  EXPECT_FALSE(out.config.recovery);
}

TEST(WireTest, DecideRoundTripPreservesDoublesBitExactly) {
  DecideRequest req;
  req.step = 41;
  req.last_step_cost = 0.1 + 0.2;  // not representable "nicely"
  req.vm_util = {0.0, 1.0 / 3.0, 1e-308, 0.9999999999999999};
  req.host_util = {0.70000000000000007, 0.0};
  req.host_of = {0, 1, 1, 0};
  req.host_down = {0, 1};
  const DecideRequest out = decode_decide(encode_decide(req));
  EXPECT_EQ(out.step, req.step);
  EXPECT_EQ(out.last_step_cost, req.last_step_cost);
  EXPECT_EQ(out.vm_util, req.vm_util);
  EXPECT_EQ(out.host_util, req.host_util);
  EXPECT_EQ(out.host_of, req.host_of);
  EXPECT_EQ(out.host_down, req.host_down);
}

TEST(WireTest, DecideResponseRoundTrip) {
  DecideResponse resp;
  resp.actions = {{2, 1}, {5, 0}};
  resp.stats = {{"temperature", 0.125}, {"lspi_updates", 40.0}};
  const DecideResponse out =
      decode_decide_response(encode_decide_response(resp));
  ASSERT_EQ(out.actions.size(), 2u);
  EXPECT_EQ(out.actions[0].vm, 2);
  EXPECT_EQ(out.actions[0].target_host, 1);
  EXPECT_EQ(out.actions[1].vm, 5);
  ASSERT_EQ(out.stats.size(), 2u);
  EXPECT_EQ(out.stats[0].name, "temperature");
  EXPECT_EQ(out.stats[0].value, 0.125);
  EXPECT_EQ(out.stats[1].value, 40.0);
}

DecideRequest sample_decide() {
  DecideRequest req;
  req.step = 7;
  req.last_step_cost = 2.5;
  req.vm_util = {0.25, 0.5, 0.75};
  req.host_util = {0.4, 0.6};
  req.host_of = {0, 1, -1};
  return req;
}

TEST(WireTest, DecideCarriesThePreviousObservation) {
  DecideRequest req = sample_decide();
  req.carried.emplace();
  req.carried->step_cost = 0.1 + 0.2;
  req.carried->outcomes = {{1, 0, MigrationVerdict::kApplied},
                           {0, 1, MigrationVerdict::kTargetDown}};
  const DecideRequest out = decode_decide(encode_decide(req));
  EXPECT_EQ(out.vm_util, req.vm_util);
  EXPECT_EQ(out.host_of, req.host_of);
  ASSERT_TRUE(out.carried.has_value());
  EXPECT_EQ(out.carried->step_cost, req.carried->step_cost);
  ASSERT_EQ(out.carried->outcomes.size(), 2u);
  EXPECT_EQ(out.carried->outcomes[0].vm, 1);
  EXPECT_EQ(out.carried->outcomes[1].verdict, MigrationVerdict::kTargetDown);

  // The section is exactly an Observe payload appended to the v1 Decide.
  DecideRequest bare = req;
  bare.carried.reset();
  std::vector<std::uint8_t> joined = encode_decide(bare);
  const std::vector<std::uint8_t> observe = encode_observe(*req.carried);
  joined.insert(joined.end(), observe.begin(), observe.end());
  EXPECT_EQ(joined, encode_decide(req));
}

TEST(WireTest, DecideWithoutSectionDecodesAsBefore) {
  // A v1 Decide (how the v1 daemon journaled every Decide) has no
  // trailing section and decodes with nothing carried.
  const DecideRequest out = decode_decide(encode_decide(sample_decide()));
  EXPECT_FALSE(out.carried.has_value());
  EXPECT_EQ(out.step, 7);
}

TEST(WireTest, TruncatedCarriedSectionRejected) {
  DecideRequest req = sample_decide();
  const std::size_t bare = encode_decide(req).size();
  req.carried.emplace();
  req.carried->outcomes = {{1, 0, MigrationVerdict::kApplied}};
  const std::vector<std::uint8_t> full = encode_decide(req);
  for (std::size_t cut = bare + 1; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> part(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_decide(part), Error) << "cut at " << cut;
  }
}

TEST(WireTest, ObserveRoundTrip) {
  ObserveRequest req;
  req.step_cost = 1.25;
  MigrationOutcome a;
  a.vm = 3;
  a.target_host = 2;
  a.verdict = MigrationVerdict::kApplied;
  MigrationOutcome b;
  b.vm = 1;
  b.target_host = 0;
  b.verdict = MigrationVerdict::kAborted;
  req.outcomes = {a, b};
  const ObserveRequest out = decode_observe(encode_observe(req));
  EXPECT_EQ(out.step_cost, 1.25);
  ASSERT_EQ(out.outcomes.size(), 2u);
  EXPECT_EQ(out.outcomes[0].vm, 3);
  EXPECT_EQ(out.outcomes[0].verdict, MigrationVerdict::kApplied);
  EXPECT_EQ(out.outcomes[1].verdict, MigrationVerdict::kAborted);
}

TEST(WireTest, StatsRoundTrip) {
  const std::vector<StatEntry> stats = {{"serve.decides", 12.0},
                                        {"temperature", 0.125}};
  const std::vector<StatEntry> out = decode_stats(encode_stats(stats));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "serve.decides");
  EXPECT_EQ(out[1].value, 0.125);
}

TEST(WireTest, WalStatusRoundTrip) {
  WalStatusResponse resp;
  resp.next_seq = 101;
  resp.records_since_compaction = 5;
  resp.segments = 2;
  resp.wal_bytes = 4096;
  resp.snapshot_gen = 3;
  resp.snapshot_seq = 96;
  const WalStatusResponse out = decode_wal_status(encode_wal_status(resp));
  EXPECT_EQ(out.next_seq, 101u);
  EXPECT_EQ(out.snapshot_seq, 96u);
}

TEST(WireTest, TruncationAtEveryByteRejected) {
  // Chopping the payload anywhere must throw, never read out of bounds or
  // silently accept a prefix.
  const std::vector<std::uint8_t> full = encode_init(sample_init());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> part(full.begin(),
                                         full.begin() +
                                             static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_init(part), Error) << "cut at " << cut;
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  std::vector<std::uint8_t> bytes = encode_decide(DecideRequest{});
  bytes.push_back(0xAB);
  EXPECT_THROW(decode_decide(bytes), Error);
}

TEST(WireTest, FuzzedCountFieldRejected) {
  // A huge vector count whose elements cannot fit in the remaining bytes
  // must be rejected before any allocation of that size.
  DecideRequest req;
  req.vm_util = {0.5};
  std::vector<std::uint8_t> bytes = encode_decide(req);
  // vm_util count is the u32 right after step (i32) + last_step_cost (f64).
  const std::size_t count_at = 4 + 8;
  bytes[count_at] = 0xff;
  bytes[count_at + 1] = 0xff;
  bytes[count_at + 2] = 0xff;
  bytes[count_at + 3] = 0x7f;
  EXPECT_THROW(decode_decide(bytes), Error);
}

TEST(WireTest, BadEnumByteRejected) {
  ObserveRequest req;
  MigrationOutcome o;
  o.verdict = MigrationVerdict::kApplied;
  req.outcomes = {o};
  std::vector<std::uint8_t> bytes = encode_observe(req);
  bytes.back() = 17;  // verdict byte is the last field
  EXPECT_THROW(decode_observe(bytes), Error);
}

}  // namespace
}  // namespace megh::serve
