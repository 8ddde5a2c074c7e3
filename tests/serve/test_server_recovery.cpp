// Crash-exact recovery of MeghServer: kill the server (destroy the
// instance) at every request boundary, rebuild it from the serve
// directory, and require byte-identical decisions and state from there
// on. In-process "kills" are equivalent to kill -9 at a request boundary
// because every acknowledged request is already on disk; mid-write tears
// are covered by the WAL corruption tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wal.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "sim/sla.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh::serve {
namespace {

struct Recorded {
  MsgType type;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> response;  // raw, status byte included
};

/// Forwards to a MeghServer and tapes every exchange except Hello, which
/// changes nothing: the tape is Init, then one request per WAL seq.
class RecordingTransport : public ServeTransport {
 public:
  RecordingTransport(MeghServer& server, std::vector<Recorded>& log)
      : server_(&server), log_(&log) {}
  std::vector<std::uint8_t> roundtrip(
      MsgType type, std::span<const std::uint8_t> payload) override {
    std::vector<std::uint8_t> raw = server_->handle(type, payload);
    if (type == MsgType::kHello) return unwrap_response(type, raw);
    log_->push_back(Recorded{
        type, std::vector<std::uint8_t>(payload.begin(), payload.end()), raw});
    return unwrap_response(type, raw);
  }

 private:
  MeghServer* server_;
  std::vector<Recorded>* log_;
};

class ServerRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            (std::string("megh_srv_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static ServeOptions fast_options(std::filesystem::path dir,
                                   int compact_every) {
    ServeOptions options;
    options.dir = std::move(dir);
    options.compact_every = compact_every;
    options.fsync = false;  // crash-at-boundary tests don't lose power
    return options;
  }

  /// Drive `steps` simulation steps through `transport`'s server.
  void run_sim(std::shared_ptr<ServeTransport> transport, int steps) {
    MeghConfig config;
    config.seed = 17;
    RemoteMeghPolicy policy(std::move(transport), config);
    Rng rng(5);
    std::vector<VmSpec> specs = sample_vm_fleet(12, rng);
    Datacenter dc(standard_host_fleet(8), specs);
    Rng prng(2);
    place_initial(dc, InitialPlacement::kRandom, prng);
    PlanetLabSynthConfig tc;
    tc.num_vms = 12;
    tc.num_steps = steps;
    const TraceTable trace = generate_planetlab(tc);
    Simulation sim(std::move(dc), trace, SimulationConfig{});
    sim.run(policy, steps);
    policy.flush();
  }

  /// Record the full request/response stream of an uninterrupted run.
  std::vector<Recorded> record_reference(const std::filesystem::path& dir,
                                         int steps, std::string* dump) {
    MeghServer server(fast_options(dir, /*compact_every=*/0));
    std::vector<Recorded> log;
    run_sim(std::make_shared<RecordingTransport>(server, log), steps);
    if (dump != nullptr) *dump = dump_of(server);
    return log;
  }

  /// Decide responses of a server recovered from a snapshot: the actions
  /// byte-identical, and every stat equal except the learner's history
  /// counters, which a snapshot does not carry (LspiLearner::restore keeps
  /// the restoring learner's own), so they restart at the snapshot.
  static void expect_same_decision(std::span<const std::uint8_t> got,
                                   std::span<const std::uint8_t> want,
                                   const std::string& where) {
    ASSERT_FALSE(got.empty());
    ASSERT_EQ(got[0], 0) << where;
    const DecideResponse g = decode_decide_response(got.subspan(1));
    const DecideResponse w = decode_decide_response(want.subspan(1));
    EXPECT_EQ(encode_decide_response({g.actions, {}}),
              encode_decide_response({w.actions, {}}))
        << where;
    ASSERT_EQ(g.stats.size(), w.stats.size()) << where;
    for (std::size_t k = 0; k < w.stats.size(); ++k) {
      EXPECT_EQ(g.stats[k].name, w.stats[k].name) << where;
      if (w.stats[k].name == "lspi_updates" ||
          w.stats[k].name == "singular_skips" ||
          w.stats[k].name == "truncations") {
        continue;
      }
      EXPECT_EQ(g.stats[k].value, w.stats[k].value)
          << where << ", " << w.stats[k].name;
    }
  }

  static std::string dump_of(MeghServer& server) {
    std::ostringstream out;
    server.dump_state(out);
    return out.str();
  }

  static double stat_of(MeghServer& server, const std::string& name) {
    for (const StatEntry& entry : server.stats_response().stats) {
      if (entry.name == name) return entry.value;
    }
    ADD_FAILURE() << "Stats has no " << name;
    return -1.0;
  }

  /// Every file in `dir`, name → bytes.
  static std::map<std::string, std::string> directory_bytes(
      const std::filesystem::path& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      files[entry.path().filename().string()] = bytes.str();
    }
    return files;
  }

  /// The WAL of a run of `log[0, valid_to)` in `dir`, then records for
  /// `extra` appended by hand at the next seqs, each as a Decide. Returns
  /// the byte offset of every hand-appended record in its segment.
  std::vector<std::uint64_t> tape_then_append(
      const std::filesystem::path& dir, const std::vector<Recorded>& log,
      std::size_t valid_to,
      const std::vector<std::vector<std::uint8_t>>& extra) {
    {
      MeghServer server(fast_options(dir, 0));
      for (std::size_t i = 0; i < valid_to; ++i) {
        EXPECT_EQ(server.handle(log[i].type, log[i].payload).at(0), 0);
      }
    }
    std::vector<std::uint64_t> offsets;
    WalWriter writer(dir, valid_to, /*fsync=*/false);
    for (const std::vector<std::uint8_t>& payload : extra) {
      offsets.push_back(std::filesystem::file_size(writer.segment_path()));
      writer.append(static_cast<std::uint16_t>(MsgType::kDecide), payload);
    }
    return offsets;
  }

  /// The taped Decide `log[at]`, except that its carried observation
  /// "applies" a VM onto the host it already sits on (read off the Decide
  /// before it). It decodes, but apply_observe refuses the no-op move.
  static std::vector<std::uint8_t> unappliable_decide(
      const std::vector<Recorded>& log, std::size_t at) {
    EXPECT_EQ(log[at - 1].type, MsgType::kDecide);
    EXPECT_EQ(log[at].type, MsgType::kDecide);
    const DecideRequest before = decode_decide(log[at - 1].payload);
    DecideRequest bad = decode_decide(log[at].payload);
    const auto placed = std::find_if(before.host_of.begin(),
                                     before.host_of.end(),
                                     [](int h) { return h != kUnplaced; });
    EXPECT_NE(placed, before.host_of.end());
    const int vm = static_cast<int>(placed - before.host_of.begin());
    ObserveRequest carried = bad.carried.value_or(ObserveRequest{});
    carried.outcomes = {
        MigrationOutcome{vm, *placed, MigrationVerdict::kApplied}};
    bad.carried = carried;
    return encode_decide(bad);
  }

  /// The state an uninterrupted reference directory holds at `seq`.
  static std::string reference_dump_at(const std::filesystem::path& ref,
                                       std::uint64_t seq) {
    ServeOptions ro = fast_options(ref, 0);
    ro.read_only = true;
    ro.replay_to = seq;
    MeghServer server(ro);
    return dump_of(server);
  }

  /// The file a compaction of generation `gen` writes its snapshot to.
  static std::string snapshot_file(std::uint64_t gen) {
    return strf("snap-%020llu.ckpt", static_cast<unsigned long long>(gen));
  }

  std::filesystem::path root_;
};

TEST_F(ServerRecoveryTest, FaultFreeServedRunIsBitIdenticalToLocal) {
  MeghConfig config;
  config.seed = 17;
  Rng rng(5);
  std::vector<VmSpec> specs = sample_vm_fleet(12, rng);
  PlanetLabSynthConfig tc;
  tc.num_vms = 12;
  tc.num_steps = 40;
  const TraceTable trace = generate_planetlab(tc);

  auto run_with = [&](MigrationPolicy& policy) {
    Datacenter dc(standard_host_fleet(8), specs);
    Rng prng(2);
    place_initial(dc, InitialPlacement::kRandom, prng);
    Simulation sim(std::move(dc), trace, SimulationConfig{});
    return sim.run(policy, 40);
  };

  MeghPolicy local(config);
  const SimulationResult local_result = run_with(local);

  MeghServer server(fast_options(root_ / "dir", 16));
  auto transport = std::make_shared<LocalTransport>(server);
  RemoteMeghPolicy served(transport, config);
  const SimulationResult served_result = run_with(served);

  EXPECT_EQ(served_result.totals.total_cost_usd,
            local_result.totals.total_cost_usd);
  EXPECT_EQ(served_result.totals.migrations, local_result.totals.migrations);
  ASSERT_EQ(served_result.steps.size(), local_result.steps.size());
  for (std::size_t i = 0; i < local_result.steps.size(); ++i) {
    EXPECT_EQ(served_result.steps[i].step_cost_usd,
              local_result.steps[i].step_cost_usd)
        << "step " << i;
    EXPECT_EQ(served_result.steps[i].migrations,
              local_result.steps[i].migrations)
        << "step " << i;
    // The policy's own stats reach the engine unchanged at every step.
    const PolicyStats& local_stats = local_result.steps[i].policy_stats;
    const PolicyStats& served_stats = served_result.steps[i].policy_stats;
    ASSERT_FALSE(local_stats.empty());
    for (int k = 0; k < local_stats.size(); ++k) {
      const double* value = served_stats.find(local_stats.key(k));
      ASSERT_NE(value, nullptr)
          << "step " << i << " lacks " << local_stats.key(k).name();
      EXPECT_EQ(*value, local_stats.value(k))
          << "step " << i << ", " << local_stats.key(k).name();
    }
  }
}

TEST_F(ServerRecoveryTest, KillAtEveryRequestBoundaryRecoversExactly) {
  std::string ref_dump;
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/12, &ref_dump);
  ASSERT_EQ(log.size(), 14u);  // init + one Decide per step + the flush

  // WAL seq i holds request i, byte for byte as it arrived.
  const WalScan scan = scan_wal(root_ / "ref");
  ASSERT_EQ(scan.records.size(), log.size() - 1);
  for (std::size_t i = 1; i < log.size(); ++i) {
    const WalRecord& record = scan.records[i - 1];
    EXPECT_EQ(record.seq, i);
    EXPECT_EQ(record.type, static_cast<std::uint16_t>(log[i].type));
    EXPECT_EQ(record.payload, log[i].payload) << "seq " << i;
  }
  EXPECT_EQ(log.back().type, MsgType::kObserve);

  for (std::size_t kill_at = 1; kill_at < log.size(); ++kill_at) {
    const auto dir = root_ / ("victim_" + std::to_string(kill_at));
    {
      MeghServer before(fast_options(dir, /*compact_every=*/0));
      for (std::size_t i = 0; i < kill_at; ++i) {
        before.handle(log[i].type, log[i].payload);
      }
      // Destroyed here — the "kill". Every acked request is on disk.
    }
    MeghServer after(fast_options(dir, /*compact_every=*/0));
    ASSERT_TRUE(after.initialized()) << "kill at " << kill_at;
    for (std::size_t i = kill_at; i < log.size(); ++i) {
      const std::vector<std::uint8_t> response =
          after.handle(log[i].type, log[i].payload);
      if (log[i].type == MsgType::kDecide) {
        EXPECT_EQ(response, log[i].response)
            << "decision diverged after kill at " << kill_at << ", request "
            << i;
      } else {
        ASSERT_FALSE(response.empty());
        EXPECT_EQ(response[0], 0) << "request " << i << " failed after kill";
      }
    }
    EXPECT_EQ(dump_of(after), ref_dump) << "kill at " << kill_at;
  }
}

TEST_F(ServerRecoveryTest, KillPointsWithCompactionAndCheckpointsRecover) {
  std::string ref_dump;
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/60, &ref_dump);
  ASSERT_EQ(log.size(), 62u);

  // A handful of kill points across a longer run, now with aggressive
  // compaction and explicit mid-stream checkpoints in the mix. Request i
  // journals seq i; a compaction runs on every 7th record since the last
  // one and on the checkpoint after request kill_at / 2, so the snapshot
  // each kill recovers from is known exactly.
  struct KillPoint {
    std::size_t kill_at;
    std::uint64_t snapshot_seq;
  };
  for (const KillPoint point : {
           KillPoint{2, 1},    // right after the checkpoint at seq 1
           KillPoint{9, 4},    // checkpoint at 4, then 4 records
           KillPoint{20, 17},  // 7, checkpoint at 10, 17
           KillPoint{31, 29},  // 7, 14, checkpoint at 15, 22, 29
           KillPoint{33, 30},  // 7, 14, checkpoint at 16, 23, 30
           KillPoint{60, 58},  // 7 … 28, checkpoint at 30, 37 … 58
       }) {
    const std::size_t kill_at = point.kill_at;
    const auto dir = root_ / ("victim_" + std::to_string(kill_at));
    {
      MeghServer before(fast_options(dir, /*compact_every=*/7));
      for (std::size_t i = 0; i < kill_at; ++i) {
        before.handle(log[i].type, log[i].payload);
        if (i == kill_at / 2) before.checkpoint();
      }
      EXPECT_EQ(before.wal_status().snapshot_seq, point.snapshot_seq)
          << "kill at " << kill_at;
    }
    MeghServer after(fast_options(dir, /*compact_every=*/7));
    EXPECT_EQ(after.wal_status().snapshot_seq, point.snapshot_seq)
        << "kill at " << kill_at;
    EXPECT_EQ(after.recovered_seq(), kill_at - 1) << "kill at " << kill_at;
    for (std::size_t i = kill_at; i < log.size(); ++i) {
      const std::vector<std::uint8_t> response =
          after.handle(log[i].type, log[i].payload);
      if (log[i].type == MsgType::kDecide) {
        expect_same_decision(response, log[i].response,
                             strf("kill at %zu, request %zu", kill_at, i));
      }
    }
    after.checkpoint();  // compaction after recovery must also be sound
    EXPECT_EQ(dump_of(after), ref_dump) << "kill at " << kill_at;

    // And the compacted directory must itself recover.
    MeghServer again(fast_options(dir, /*compact_every=*/7));
    EXPECT_EQ(dump_of(again), ref_dump) << "post-compaction, kill at "
                                        << kill_at;
  }
}

TEST_F(ServerRecoveryTest, ReadOnlyReplayToMatchesPrefixFeed) {
  // The CI byte-compare mechanism: replaying the uninterrupted reference
  // directory up to seq K equals feeding the first K mutating requests
  // into a fresh server. (Request i is WAL seq i: Init is persisted as
  // init.bin, every later request journals one record.)
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/10, nullptr);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, log.size() - 2}) {
    const auto dir = root_ / ("prefix_" + std::to_string(k));
    std::string prefix_dump;
    {
      MeghServer server(fast_options(dir, 0));
      for (std::size_t i = 0; i <= k; ++i) {
        server.handle(log[i].type, log[i].payload);
      }
      prefix_dump = dump_of(server);
    }
    ServeOptions ro = fast_options(root_ / "ref", 0);
    ro.read_only = true;
    ro.replay_to = k;
    MeghServer replayed(ro);
    EXPECT_EQ(replayed.recovered_seq(), k);
    EXPECT_EQ(dump_of(replayed), prefix_dump) << "replay_to " << k;
  }
}

TEST_F(ServerRecoveryTest, ReadOnlyRejectsMutationsAndOpensNoWriter) {
  record_reference(root_ / "ref", /*steps=*/4, nullptr);
  const auto segments_before = list_wal_segments(root_ / "ref").size();
  ServeOptions ro = fast_options(root_ / "ref", 0);
  ro.read_only = true;
  {
    MeghServer server(ro);
    DecideRequest req;  // shape doesn't matter; must be rejected first
    EXPECT_THROW(server.decide(req, encode_decide(req)), Error);
    EXPECT_THROW(server.observe(ObserveRequest{},
                                encode_observe(ObserveRequest{})),
                 Error);
    // Admin verbs still work.
    EXPECT_FALSE(server.stats_response().stats.empty());
  }
  EXPECT_EQ(list_wal_segments(root_ / "ref").size(), segments_before)
      << "read-only recovery must not add WAL segments";
}

TEST_F(ServerRecoveryTest, ReplayToRequiresReadOnly) {
  ServeOptions options = fast_options(root_ / "dir", 0);
  options.replay_to = 5;
  EXPECT_THROW(MeghServer{options}, Error);
}

TEST_F(ServerRecoveryTest, DamagedDirectoryRefused) {
  // WAL segments without init.bin: the recovery root is gone.
  const auto dir = root_ / "damaged";
  {
    MeghServer server(fast_options(dir, 0));
    std::vector<Recorded> log;
    run_sim(std::make_shared<RecordingTransport>(server, log), 2);
  }
  std::filesystem::remove(dir / "init.bin");
  EXPECT_THROW(MeghServer{fast_options(dir, 0)}, IoError);
}

TEST_F(ServerRecoveryTest, PreviousSnapshotVersionRefusedUntouched) {
  // A directory whose snapshot embeds the retired v3 flat policy section
  // ("megh-serve-snapshot v1") must be refused at startup with an error
  // naming that version — and recovery must not modify a single file.
  const auto dir = root_ / "old";
  {
    MeghServer server(fast_options(dir, 0));
    std::vector<Recorded> log;
    run_sim(std::make_shared<RecordingTransport>(server, log), 4);
    server.checkpoint();
  }
  std::filesystem::path snapshot;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") snapshot = entry.path();
  }
  ASSERT_FALSE(snapshot.empty());
  {
    std::ifstream in(snapshot);
    std::string magic, rest;
    std::getline(in, magic);
    ASSERT_EQ(magic, "megh-serve-snapshot v2");
    std::ostringstream body;
    body << in.rdbuf();
    std::ofstream(snapshot) << "megh-serve-snapshot v1\n" << body.str();
  }
  const auto before = directory_bytes(dir);
  try {
    MeghServer server(fast_options(dir, 0));
    FAIL() << "a v1 snapshot was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("megh-serve-snapshot v1"), std::string::npos) << what;
  }
  EXPECT_EQ(directory_bytes(dir), before);
}

TEST_F(ServerRecoveryTest, TornWalTailIsDroppedAndServerResumes) {
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/6, nullptr);
  const auto dir = root_ / "torn";
  {
    MeghServer server(fast_options(dir, 0));
    for (const Recorded& r : log) server.handle(r.type, r.payload);
  }
  // Tear the final record: recovery must drop it and land one seq short.
  const auto segments = list_wal_segments(dir);
  ASSERT_FALSE(segments.empty());
  const auto& last = segments.back();
  std::filesystem::resize_file(last, std::filesystem::file_size(last) - 3);
  {
    MeghServer after(fast_options(dir, 0));
    EXPECT_EQ(after.recovered_seq(), log.size() - 2)
        << "torn final record should be dropped, not replayed";
  }
  // Recovery healed the tail, so the now-sealed segment scans clean and a
  // second restart works too.
  MeghServer again(fast_options(dir, 0));
  EXPECT_EQ(again.recovered_seq(), log.size() - 2);
}

TEST_F(ServerRecoveryTest, UnappliableFinalRecordIsDroppedAndCutOff) {
  // A record whose apply throws was written before the apply ran but never
  // acknowledged (the ack follows the apply, and the writer refuses every
  // later append). Recovery drops it and resumes at the seq before it.
  const auto ref = root_ / "ref";
  const std::vector<Recorded> log = record_reference(ref, /*steps=*/6, nullptr);
  ASSERT_EQ(log.size(), 8u);
  const auto dir = root_ / "victim";
  // Seq 1–2 served live, seq 3 (the taped request) and the bad seq 4
  // hand-appended into one segment that starts at seq 3.
  const std::vector<std::uint64_t> offsets = tape_then_append(
      dir, log, 3, {log[3].payload, unappliable_decide(log, 4)});
  const std::string want = reference_dump_at(ref, 3);
  {
    MeghServer after(fast_options(dir, 0));
    EXPECT_EQ(after.recovered_seq(), 3u);
    EXPECT_EQ(after.next_seq(), 4u);
    EXPECT_EQ(dump_of(after), want);
    // Cut off its segment, so the writer's fresh segment follows seq 3.
    EXPECT_EQ(std::filesystem::file_size(dir / wal_segment_name(3)),
              offsets[1]);
    // And the client's retry of the real request answers as taped.
    EXPECT_EQ(after.handle(log[4].type, log[4].payload), log[4].response);
  }
  // The cut directory scans clean and recovers through the retried seq.
  const WalScan scan = scan_wal(dir);
  EXPECT_FALSE(scan.dropped_torn_tail);
  EXPECT_EQ(scan.next_seq, 5u);
  MeghServer again(fast_options(dir, 0));
  EXPECT_EQ(again.recovered_seq(), 4u);
  EXPECT_EQ(dump_of(again), reference_dump_at(ref, 4));
}

TEST_F(ServerRecoveryTest, UnappliableFirstRecordLeavesTheInitState) {
  // Below a dropped seq-1 record there is only the Init. This record moves
  // a VM before its repeated move throws, so a second replay that reached
  // it again would leave the move in the recovered mirror.
  const auto ref = root_ / "ref";
  const std::vector<Recorded> log = record_reference(ref, /*steps=*/6, nullptr);
  const InitRequest init = decode_init(log[0].payload);
  Datacenter dc(init.hosts, init.vms);
  for (std::size_t h = 0; h < init.host_vms.size(); ++h) {
    for (int vm : init.host_vms[h]) dc.place(vm, static_cast<int>(h));
  }
  int vm = -1;
  int target = -1;
  for (int v = 0; v < dc.num_vms() && target < 0; ++v) {
    for (int h = 0; h < dc.num_hosts() && target < 0; ++h) {
      if (dc.host_of(v) != kUnplaced && dc.host_of(v) != h && dc.fits(v, h)) {
        vm = v;
        target = h;
      }
    }
  }
  ASSERT_GE(target, 0);
  DecideRequest bad = decode_decide(log[1].payload);
  ObserveRequest carried;
  carried.outcomes = {MigrationOutcome{vm, target, MigrationVerdict::kApplied},
                      MigrationOutcome{vm, target, MigrationVerdict::kApplied}};
  bad.carried = carried;
  const auto dir = root_ / "victim";
  tape_then_append(dir, log, 1, {encode_decide(bad)});

  std::string want;
  {
    MeghServer init_only(fast_options(root_ / "init-only", 0));
    ASSERT_EQ(init_only.handle(log[0].type, log[0].payload).at(0), 0);
    want = dump_of(init_only);
  }
  MeghServer after(fast_options(dir, 0));
  EXPECT_EQ(after.recovered_seq(), 0u);
  EXPECT_EQ(after.next_seq(), 1u);
  EXPECT_EQ(dump_of(after), want);
  EXPECT_EQ(after.handle(log[1].type, log[1].payload), log[1].response);
}

TEST_F(ServerRecoveryTest, ReadOnlyRecoveryDropsUnappliableFinalRecordUntouched) {
  const auto ref = root_ / "ref";
  const std::vector<Recorded> log = record_reference(ref, /*steps=*/6, nullptr);
  const auto dir = root_ / "victim";
  tape_then_append(dir, log, 3, {log[3].payload, unappliable_decide(log, 4)});
  const auto before = directory_bytes(dir);
  ServeOptions ro = fast_options(dir, 0);
  ro.read_only = true;
  {
    MeghServer server(ro);
    EXPECT_EQ(server.recovered_seq(), 3u);
    EXPECT_EQ(dump_of(server), reference_dump_at(ref, 3));
  }
  EXPECT_EQ(directory_bytes(dir), before);
  // Replaying to the dropped seq is asking for state the journal never
  // acknowledged.
  ro.replay_to = 4;
  EXPECT_THROW(MeghServer{ro}, IoError);
}

TEST_F(ServerRecoveryTest, UnappliableRecordBeforeTheFinalOneIsFatal) {
  // Only the final record can be an unacknowledged failed apply; one with
  // records after it is damage, and recovery names it without touching
  // the directory.
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/6, nullptr);
  const auto dir = root_ / "victim";
  tape_then_append(dir, log, 3, {unappliable_decide(log, 3), log[4].payload});
  const auto before = directory_bytes(dir);
  for (const bool read_only : {false, true}) {
    ServeOptions options = fast_options(dir, 0);
    options.read_only = read_only;
    try {
      MeghServer server(options);
      FAIL() << "an unappliable record before the final one was accepted";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("seq 3 "), std::string::npos) << what;
      EXPECT_NE(what.find("not the final record"), std::string::npos) << what;
    }
    EXPECT_EQ(directory_bytes(dir), before);
  }
}

TEST_F(ServerRecoveryTest, FsyncOnServedRunMatchesTheTapeAndRecovers) {
  // The other tests run with fsync off; this one takes the syncer-thread
  // path, where each record's fsync overlaps its apply.
  std::string ref_dump;
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/12, &ref_dump);
  const auto dir = root_ / "durable";
  ServeOptions options = fast_options(dir, /*compact_every=*/5);
  options.fsync = true;
  {
    MeghServer server(options);
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(server.handle(log[i].type, log[i].payload), log[i].response)
          << "request " << i;
    }
    EXPECT_EQ(dump_of(server), ref_dump);
    EXPECT_GT(stat_of(server, "serve.fsync_us"), 0.0);
    EXPECT_GE(stat_of(server, "serve.sync_wait_us"), 0.0);
  }
  MeghServer after(options);
  EXPECT_EQ(after.recovered_seq(), log.size() - 1);
  EXPECT_EQ(dump_of(after), ref_dump);
  EXPECT_EQ(stat_of(after, "serve.fsync_us"), 0.0);
}

TEST_F(ServerRecoveryTest, CorruptWalRecordRefusedAtStartup) {
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/6, nullptr);
  const auto dir = root_ / "flip";
  {
    MeghServer server(fast_options(dir, 0));
    for (const Recorded& r : log) server.handle(r.type, r.payload);
  }
  const auto segments = list_wal_segments(dir);
  ASSERT_FALSE(segments.empty());
  // Flip a bit in the middle of the segment (not the tail).
  std::fstream f(segments.front(), std::ios::in | std::ios::out |
                                       std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<long long>(f.tellg());
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(MeghServer{fast_options(dir, 0)}, IoError);
}

TEST_F(ServerRecoveryTest, InvalidRequestsRejectedWithoutJournalingOrDrift) {
  // A wire-valid but semantically invalid request must be rejected
  // *before* anything reaches the journal or the policy: journaling it
  // first would make recovery replay a record apply refuses, bricking the
  // directory on every restart.
  std::string ref_dump;
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/6, &ref_dump);
  const auto dir = root_ / "victim";
  {
    MeghServer server(fast_options(dir, 0));
    server.handle(log[0].type, log[0].payload);  // Init

    // Find a taped Decide to mutate and a (vm, current host) pair.
    std::size_t decide_at = 1;
    while (log[decide_at].type != MsgType::kDecide) ++decide_at;
    const DecideRequest valid = decode_decide(log[decide_at].payload);
    const InitRequest init = decode_init(log[0].payload);
    int placed_vm = -1, placed_host = -1;
    for (std::size_t h = 0; h < init.host_vms.size() && placed_vm < 0; ++h) {
      if (!init.host_vms[h].empty()) {
        placed_vm = init.host_vms[h][0];
        placed_host = static_cast<int>(h);
      }
    }
    ASSERT_GE(placed_vm, 0);

    auto expect_rejected = [&](MsgType type,
                               const std::vector<std::uint8_t>& payload,
                               const std::string& reason) {
      const std::uint64_t seq_before = server.next_seq();
      const std::string dump_before = dump_of(server);
      const std::vector<std::uint8_t> response = server.handle(type, payload);
      ASSERT_FALSE(response.empty());
      EXPECT_EQ(response[0], 1) << "invalid request must be refused";
      WireReader r(std::span<const std::uint8_t>(response).subspan(1));
      const std::string what = r.str();
      EXPECT_NE(what.find(reason), std::string::npos) << what;
      EXPECT_EQ(server.next_seq(), seq_before)
          << "a rejected request must never reach the journal";
      EXPECT_EQ(dump_of(server), dump_before)
          << "a rejected request must not mutate anything";
    };

    DecideRequest bad_shape = valid;
    bad_shape.vm_util.pop_back();
    expect_rejected(MsgType::kDecide, encode_decide(bad_shape),
                    "shape does not match");

    DecideRequest bad_host = valid;
    bad_host.host_of[0] = static_cast<int>(init.hosts.size()) + 5;
    expect_rejected(MsgType::kDecide, encode_decide(bad_host),
                    "host_of entry out of range");

    ObserveRequest bad_range;
    bad_range.outcomes.push_back(MigrationOutcome{
        static_cast<int>(init.vms.size()), 0, MigrationVerdict::kApplied});
    expect_rejected(MsgType::kObserve, encode_observe(bad_range),
                    "outcome out of range");

    ObserveRequest same_host;  // "applied" no-op move = diverged mirror
    same_host.outcomes.push_back(
        MigrationOutcome{placed_vm, placed_host, MigrationVerdict::kApplied});
    expect_rejected(MsgType::kObserve, encode_observe(same_host),
                    "does not fit");

    // A valid Decide whose carried observation is invalid is refused whole:
    // neither the observation nor the decision applies.
    DecideRequest carried_range = valid;
    carried_range.carried = bad_range;
    expect_rejected(MsgType::kDecide, encode_decide(carried_range),
                    "outcome out of range");

    // Applied migrations onto the smallest host until it overflows by RAM.
    int target = 0;
    for (int h = 1; h < static_cast<int>(init.hosts.size()); ++h) {
      if (init.hosts[static_cast<std::size_t>(h)].ram_mb <
          init.hosts[static_cast<std::size_t>(target)].ram_mb) {
        target = h;
      }
    }
    double ram = 0.0;
    for (int vm : init.host_vms[static_cast<std::size_t>(target)]) {
      ram += init.vms[static_cast<std::size_t>(vm)].ram_mb;
    }
    DecideRequest carried_overfill = valid;
    carried_overfill.carried.emplace();
    for (std::size_t h = 0; h < init.host_vms.size(); ++h) {
      if (static_cast<int>(h) == target) continue;
      for (int vm : init.host_vms[h]) {
        if (ram > init.hosts[static_cast<std::size_t>(target)].ram_mb) break;
        carried_overfill.carried->outcomes.push_back(
            MigrationOutcome{vm, target, MigrationVerdict::kApplied});
        ram += init.vms[static_cast<std::size_t>(vm)].ram_mb;
      }
    }
    ASSERT_GT(ram, init.hosts[static_cast<std::size_t>(target)].ram_mb)
        << "the fleet cannot overfill its smallest host";
    expect_rejected(MsgType::kDecide, encode_decide(carried_overfill),
                    "does not fit");

    // The rejections consumed no RNG draws and mutated nothing: the rest
    // of the taped run must replay bit-identically.
    for (std::size_t i = 1; i < log.size(); ++i) {
      const std::vector<std::uint8_t> response =
          server.handle(log[i].type, log[i].payload);
      EXPECT_EQ(response, log[i].response) << "request " << i;
    }
    EXPECT_EQ(dump_of(server), ref_dump);
  }
  // And — the regression — the directory the rejections were served from
  // still recovers: nothing unreplayable was journaled.
  MeghServer after(fast_options(dir, 0));
  EXPECT_EQ(dump_of(after), ref_dump);
}

TEST_F(ServerRecoveryTest, StatsReportErrorsAndPoisoning) {
  // megh_serve installs no trace sink: the Stats verb is where an operator
  // reads refused requests and the poison latch.
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/4, nullptr);
  ASSERT_EQ(log[1].type, MsgType::kDecide);
  ASSERT_EQ(log[2].type, MsgType::kDecide);
  const auto dir = root_ / "victim";
  MeghServer server(fast_options(dir, /*compact_every=*/0));
  server.handle(log[0].type, log[0].payload);  // Init
  const auto stat = [&server](const std::string& name) {
    return stat_of(server, name);
  };
  EXPECT_EQ(stat("serve.errors"), 0.0);
  EXPECT_EQ(stat("serve.poisoned"), 0.0);

  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_EQ(server.handle(MsgType::kDecide, garbage).at(0), 1);
  EXPECT_EQ(stat("serve.errors"), 1.0);
  EXPECT_EQ(stat("serve.poisoned"), 0.0);

  // A directory where the checkpoint's next WAL segment must go makes the
  // rotation fail, which latches the daemon at once; the next Decide is
  // refused.
  EXPECT_EQ(server.handle(log[1].type, log[1].payload).at(0), 0);
  std::filesystem::create_directory(dir / wal_segment_name(server.next_seq()));
  EXPECT_THROW(server.checkpoint(), std::exception);
  EXPECT_EQ(stat("serve.poisoned"), 1.0);
  EXPECT_EQ(server.handle(log[2].type, log[2].payload).at(0), 1);
  EXPECT_EQ(stat("serve.errors"), 2.0);
  EXPECT_EQ(stat("serve.poisoned"), 1.0);
}

TEST_F(ServerRecoveryTest, CompactionRunsOnTheRequestThatCrossesTheThreshold) {
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/16, nullptr);
  ASSERT_EQ(log.size(), 18u);
  const auto dir = root_ / "dir";
  MeghServer server(fast_options(dir, /*compact_every=*/7));
  server.handle(log[0].type, log[0].payload);  // Init
  // Request i journals seq i; the 7th and 14th records each compact before
  // their request returns, with nothing else called in between.
  for (std::size_t i = 1; i < log.size(); ++i) {
    ASSERT_EQ(server.handle(log[i].type, log[i].payload), log[i].response)
        << "request " << i;
    const WalStatusResponse wal = server.wal_status();
    EXPECT_EQ(wal.snapshot_seq, i / 7 * 7) << "after seq " << i;
    EXPECT_EQ(wal.snapshot_gen, i / 7) << "after seq " << i;
    EXPECT_EQ(wal.records_since_compaction, i % 7) << "after seq " << i;
    EXPECT_EQ(wal.segments, 1u) << "superseded segments survive seq " << i;
  }
  EXPECT_EQ(stat_of(server, "serve.compactions"), 2.0);
  std::vector<std::string> snapshots;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("snap-")) snapshots.push_back(name);
  }
  EXPECT_EQ(snapshots, std::vector<std::string>{snapshot_file(2)});
}

TEST_F(ServerRecoveryTest, FailedRotationPoisonsTheDaemonAtOnce) {
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/10, nullptr);
  ASSERT_EQ(log[7].type, MsgType::kDecide);
  ASSERT_EQ(log[8].type, MsgType::kDecide);
  // A directory where the next WAL segment must go makes the rotation
  // fail after the snapshot is durable.
  {
    const auto dir = root_ / "inline";
    {
      MeghServer server(fast_options(dir, /*compact_every=*/7));
      for (std::size_t i = 0; i < 7; ++i) {
        ASSERT_EQ(server.handle(log[i].type, log[i].payload).at(0), 0);
      }
      std::filesystem::create_directory(dir / wal_segment_name(8));
      // The 7th record triggers the compaction; it is applied and
      // journaled, so it is still acknowledged.
      EXPECT_EQ(server.handle(log[7].type, log[7].payload), log[7].response);
      EXPECT_EQ(stat_of(server, "serve.poisoned"), 1.0);
      EXPECT_EQ(server.handle(log[8].type, log[8].payload).at(0), 1);
    }
    // The snapshot it wrote is the one a restart recovers from.
    std::filesystem::remove(dir / wal_segment_name(8));
    MeghServer after(fast_options(dir, /*compact_every=*/7));
    EXPECT_EQ(after.recovered_seq(), 7u);
    EXPECT_EQ(after.wal_status().snapshot_seq, 7u);
    expect_same_decision(after.handle(log[8].type, log[8].payload),
                         log[8].response, "after the restart");
  }
  {
    const auto dir = root_ / "verb";
    MeghServer server(fast_options(dir, /*compact_every=*/0));
    for (std::size_t i = 0; i < 7; ++i) {
      ASSERT_EQ(server.handle(log[i].type, log[i].payload).at(0), 0);
    }
    std::filesystem::create_directory(dir / wal_segment_name(7));
    EXPECT_THROW(server.checkpoint(), IoError);
    EXPECT_EQ(stat_of(server, "serve.poisoned"), 1.0);
    EXPECT_EQ(server.handle(log[7].type, log[7].payload).at(0), 1);
  }
}

TEST_F(ServerRecoveryTest, FailedSnapshotWriteKeepsServing) {
  std::string ref_dump;
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/24, &ref_dump);
  ASSERT_EQ(log.size(), 26u);
  // A directory where the next snapshot must go makes its write fail
  // before anything on disk changes.
  {
    const auto dir = root_ / "inline";
    {
      MeghServer server(fast_options(dir, /*compact_every=*/7));
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (i == 1) std::filesystem::create_directory(dir / snapshot_file(1));
        if (i == 15) std::filesystem::remove(dir / snapshot_file(1));
        // The triggering requests (seq 7 and 14) are acknowledged.
        ASSERT_EQ(server.handle(log[i].type, log[i].payload), log[i].response)
            << "request " << i;
        if (i == 7 || i == 14) {
          EXPECT_EQ(server.wal_status().snapshot_seq, 0u) << "seq " << i;
          EXPECT_EQ(stat_of(server, "serve.poisoned"), 0.0) << "seq " << i;
        }
      }
      // Retried compact_every records after each failure: seq 21 succeeds.
      const WalStatusResponse wal = server.wal_status();
      EXPECT_EQ(wal.snapshot_gen, 1u);
      EXPECT_EQ(wal.snapshot_seq, 21u);
      EXPECT_EQ(wal.records_since_compaction, 4u);
      EXPECT_EQ(stat_of(server, "serve.compactions"), 1.0);
      EXPECT_EQ(dump_of(server), ref_dump);
    }
    MeghServer after(fast_options(dir, /*compact_every=*/7));
    EXPECT_EQ(dump_of(after), ref_dump);
  }
  {
    const auto dir = root_ / "verb";
    MeghServer server(fast_options(dir, /*compact_every=*/0));
    for (std::size_t i = 0; i < 7; ++i) {
      ASSERT_EQ(server.handle(log[i].type, log[i].payload).at(0), 0);
    }
    std::filesystem::create_directory(dir / snapshot_file(1));
    EXPECT_THROW(server.checkpoint(), IoError);
    EXPECT_EQ(stat_of(server, "serve.poisoned"), 0.0);
    EXPECT_EQ(server.wal_status().snapshot_seq, 0u);
    for (std::size_t i = 7; i < log.size(); ++i) {
      ASSERT_EQ(server.handle(log[i].type, log[i].payload), log[i].response)
          << "request " << i;
    }
    EXPECT_EQ(dump_of(server), ref_dump);
  }
}

TEST_F(ServerRecoveryTest, FailedCleanupIsNotFatal) {
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/6, nullptr);
  // Non-empty directories named like a superseded snapshot and segment
  // cannot be unlinked; the compaction itself has succeeded by then.
  for (const int compact_every : {7, 0}) {
    const auto dir = root_ / ("every_" + std::to_string(compact_every));
    MeghServer server(fast_options(dir, compact_every));
    server.handle(log[0].type, log[0].payload);  // Init
    std::filesystem::create_directories(dir / snapshot_file(0) / "keep");
    std::filesystem::create_directories(dir / wal_segment_name(0) / "keep");
    for (std::size_t i = 1; i < log.size(); ++i) {
      ASSERT_EQ(server.handle(log[i].type, log[i].payload), log[i].response)
          << "request " << i;
    }
    if (compact_every == 0) {
      EXPECT_EQ(server.checkpoint().snapshot_seq, 7u);
    }
    EXPECT_EQ(server.wal_status().snapshot_seq, 7u);
    EXPECT_EQ(stat_of(server, "serve.compactions"), 1.0);
    EXPECT_EQ(stat_of(server, "serve.poisoned"), 0.0);
    EXPECT_TRUE(std::filesystem::exists(dir / snapshot_file(0)));
    // Segments newer than one that could not be removed stay too, so the
    // surviving chain has no gap for recovery to reject.
    EXPECT_TRUE(std::filesystem::exists(dir / wal_segment_name(1)));
  }
}

/// `init` (an encoded Init) with the bytes at `field` — an offset from
/// the start of its MeghConfig, in the layout encode_init writes, so the
/// cost block before it sits at negative offsets and the fabric block
/// after it at positive ones — replaced by `value`; the bytes there must
/// encode `builtin`. The config's start is found as the first byte two
/// encodings that differ only in the lowest bit of gamma disagree on.
template <typename T>
std::vector<std::uint8_t> patch_megh_field(
    const std::vector<std::uint8_t>& init, std::ptrdiff_t field, T builtin,
    T value) {
  InitRequest req = decode_init(init);
  req.config.gamma = 0.5;
  const std::vector<std::uint8_t> a = encode_init(req);
  req.config.gamma = std::nextafter(0.5, 1.0);
  const std::vector<std::uint8_t> b = encode_init(req);
  const std::size_t gamma_at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
  const auto encode = [](T x) {
    WireWriter w;
    if constexpr (std::is_same_v<T, double>) {
      w.f64(x);
    } else {
      w.i32(x);
    }
    return w.take();
  };
  const auto at = static_cast<std::ptrdiff_t>(gamma_at) + field;
  const std::vector<std::uint8_t> old_bytes = encode(builtin);
  EXPECT_TRUE(std::equal(old_bytes.begin(), old_bytes.end(), init.begin() + at))
      << "offset " << field << " does not hold the built-in value";
  std::vector<std::uint8_t> out = init;
  const std::vector<std::uint8_t> new_bytes = encode(value);
  std::copy(new_bytes.begin(), new_bytes.end(), out.begin() + at);
  return out;
}

TEST_F(ServerRecoveryTest, InvalidInitLeavesTheDirectoryClean) {
  // An Init that fails validation must not persist init.bin: recovery
  // reads that file unconditionally, so a durably-written bad Init would
  // make the daemon unable to start from the directory forever.
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/3, nullptr);
  const auto dir = root_ / "victim";
  {
    MeghServer server(fast_options(dir, 0));

    auto expect_rejected = [&](const std::vector<std::uint8_t>& bad) {
      const std::vector<std::uint8_t> response =
          server.handle(MsgType::kInit, bad);
      ASSERT_FALSE(response.empty());
      EXPECT_EQ(response[0], 1);
      EXPECT_FALSE(std::filesystem::exists(dir / "init.bin"))
          << "a rejected Init must not be persisted";
      EXPECT_TRUE(list_wal_segments(dir).empty());
      EXPECT_FALSE(server.initialized());
    };

    // Fails apply_init's upfront validation (cost.validate()).
    InitRequest bad_config = decode_init(log[0].payload);
    bad_config.cost.beta_overload = 1.5;
    expect_rejected(encode_init(bad_config));

    // Fails the decoder's built-in-value check. A NaN baseline weight would
    // turn every critic update NaN while the daemon kept journaling; an
    // in-range pack ceiling or target count the policy no longer reads
    // would make the served run silently differ from the client's intent.
    // Offsets follow put_megh_config: five f64s and a u8 precede
    // baseline_weight; targets_per_source and pack_ceiling sit further on.
    expect_rejected(patch_megh_field(
        log[0].payload, 41, kBaselineWeight,
        std::numeric_limits<double>::quiet_NaN()));
    expect_rejected(
        patch_megh_field(log[0].payload, 74, kTargetsPerSource, 7));
    expect_rejected(patch_megh_field(log[0].payload, 86, kPackCeiling, 0.8));
    // The cost block and the fabric's link speeds keep slots for the cost
    // model's and the fabric's constants too. The cost block's last f64
    // before two u8s and the i32 window is the migration-downtime
    // fraction; the link speeds follow the MeghConfig's 111 bytes, the
    // has_network byte and the fat-tree k.
    expect_rejected(patch_megh_field(log[0].payload, -14,
                                     kMigrationDowntimeFraction, 0.1));
    InitRequest fabric = decode_init(log[0].payload);
    fabric.has_network = true;
    fabric.network_k =
        FatTreeTopology::for_hosts(static_cast<int>(fabric.hosts.size()))
            .k();
    expect_rejected(
        patch_megh_field(encode_init(fabric), 116, kEdgeLinkMbps, 10000.0));

    // An infinite temperature passes a plain `> 0` check, but its first
    // decay is NaN: a journaled Megh that silently never migrates again.
    InitRequest bad_temperature = decode_init(log[0].payload);
    bad_temperature.config.temp0 = std::numeric_limits<double>::infinity();
    expect_rejected(encode_init(bad_temperature));
    InitRequest bad_decay = decode_init(log[0].payload);
    bad_decay.config.epsilon = std::numeric_limits<double>::infinity();
    expect_rejected(encode_init(bad_decay));

    // Fails mid-way through rebuilding the placement mirror (a VM placed
    // twice): the partial mirror must be discarded, not persisted.
    InitRequest bad_placement = decode_init(log[0].payload);
    for (std::vector<int>& vms : bad_placement.host_vms) {
      if (!vms.empty()) {
        vms.push_back(vms[0]);
        break;
      }
    }
    expect_rejected(encode_init(bad_placement));

    // The same daemon accepts a valid Init afterwards and serves.
    for (const Recorded& r : log) {
      const std::vector<std::uint8_t> ok = server.handle(r.type, r.payload);
      ASSERT_FALSE(ok.empty());
      EXPECT_EQ(ok[0], 0);
    }
  }
  MeghServer after(fast_options(dir, 0));
  EXPECT_TRUE(after.initialized());
}

/// Answers Hello with a fixed version and tapes every other verb.
class VersionTransport : public ServeTransport {
 public:
  explicit VersionTransport(std::uint32_t version) : version_(version) {}
  std::vector<std::uint8_t> roundtrip(
      MsgType type, std::span<const std::uint8_t>) override {
    if (type != MsgType::kHello) {
      others.push_back(type);
      throw Error("unexpected request");
    }
    WireWriter w;
    w.u32(version_);
    return w.take();
  }
  std::vector<MsgType> others;

 private:
  std::uint32_t version_;
};

TEST(RemoteMeghPolicyTest, BeginRefusesAnotherProtocolVersionBeforeInit) {
  auto transport = std::make_shared<VersionTransport>(1);
  RemoteMeghPolicy policy(transport, MeghConfig{});
  Rng rng(5);
  Datacenter dc(standard_host_fleet(4), sample_vm_fleet(4, rng));
  try {
    policy.begin(dc, CostConfig{}, 300.0);
    FAIL() << "a v1 daemon was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
    EXPECT_NE(what.find(strf("v%u", kProtocolVersion)), std::string::npos)
        << what;
  }
  EXPECT_TRUE(transport->others.empty()) << "Init was sent anyway";
}

TEST_F(ServerRecoveryTest, ProtocolV1DirectoryRecoversToItsRecordedDump) {
  // A journal written by the protocol-v1 daemon (separate Decide and
  // Observe records) must recover to the byte-identical state that daemon
  // dumped for it (tests/data/serve_protocol_v1/README.md).
  const std::filesystem::path fixture =
      std::filesystem::path(MEGH_TEST_DATA_DIR) / "serve_protocol_v1";
  std::ifstream in(fixture / "recovered.dump", std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << fixture;
  std::ostringstream expected;
  expected << in.rdbuf();

  const auto dir = root_ / "v1";
  std::filesystem::copy(fixture / "state", dir);
  {
    ServeOptions ro = fast_options(dir, 0);
    ro.read_only = true;
    MeghServer server(ro);
    EXPECT_EQ(server.recovered_seq(), 48u);
    EXPECT_EQ(dump_of(server), expected.str());
  }
  MeghServer writable(fast_options(dir, 0));
  EXPECT_EQ(dump_of(writable), expected.str());
}

TEST_F(ServerRecoveryTest, InitIsIdempotentForMatchingFleet) {
  // A client that reconnects after a daemon restart re-sends Init; the
  // server must accept it as a no-op instead of resetting the policy.
  const std::vector<Recorded> log =
      record_reference(root_ / "ref", /*steps=*/4, nullptr);
  const auto dir = root_ / "dir";
  MeghServer server(fast_options(dir, 0));
  for (const Recorded& r : log) server.handle(r.type, r.payload);
  const std::string before = dump_of(server);
  const std::vector<std::uint8_t> response =
      server.handle(MsgType::kInit, log[0].payload);
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response[0], 0);
  EXPECT_EQ(dump_of(server), before) << "re-Init must not perturb state";
}

}  // namespace
}  // namespace megh::serve
