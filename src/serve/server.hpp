// MeghServer: the state machine behind the megh_serve daemon
// (docs/SERVING.md). Transport-agnostic — the Unix-socket listener
// (serve/socket.hpp), the in-process LocalTransport used by tests and the
// decide-rate bench all feed the same handle() entry point.
//
// The server mirrors the caller's datacenter and runs the identical
// MeghPolicy the caller would run locally. Durability contract:
//
//   1. Init is persisted once as `init.bin` (the raw Init payload, written
//      atomically) — the fleet specs and configs every recovery starts
//      from. It is never compacted away, and it is only written after the
//      request applied successfully, so a rejected Init can never brick
//      the directory.
//   2. Every mutating request (Decide, Observe) is validated, written to
//      the WAL, and then applied while that record's fsync runs on the
//      WAL writer's syncer thread; it is acknowledged only after both the
//      apply and the fsync finished, so a step pays max(apply, fsync), not
//      their sum. A Decide carries the previous step's observation, so a
//      served step costs one record. The journal stores the request bytes
//      as received, not state deltas: replay re-executes them through the
//      same apply path, so recovered state is bit-identical — same
//      learner, same RNG position, same pending SARSA transition, same
//      placement mirror.
//      A request that fails validation touches neither state nor journal.
//      If its write, its apply or its fsync fails, the daemon poisons
//      itself: every further mutating request, compaction, and dump is
//      refused until a restart recovers the (consistent) journaled
//      prefix, and the writer appends nothing more. So the one record
//      whose apply can fail on replay is the WAL's final one, which was
//      never acknowledged (the ack follows the apply, and replay is
//      deterministic): recovery drops it, capping the replay at the
//      previous seq, and a writable recovery cuts it off its segment
//      before opening the writer. That covers a crash between the failed
//      apply and the poison latch too. An unappliable record anywhere
//      else, or one that does not decode, is damage and stays fatal.
//   3. Compaction runs on the request path: the Decide or Observe that
//      journals the compact_every-th record since the last compaction
//      runs it before returning, and the Checkpoint verb runs it on
//      demand. It writes snap-<gen>.ckpt atomically under the state lock,
//      rotates the WAL at the snapshot boundary, and only then unlinks
//      older segments and snapshots. A crash at any instant leaves either
//      the old snapshot+WAL chain or the new one — never neither.
//      A failed snapshot write changes nothing on disk; a failed rotation
//      poisons the daemon; a failed unlink is only logged. A compaction
//      failure never fails the request that triggered it: that request is
//      already applied and journaled.
//
// Recovery = read init.bin, load the newest usable snapshot, replay WAL
// records with seq greater than the snapshot's. kill -9 at any point
// between request boundaries lands on this path and reproduces the exact
// pre-kill state (tier-1 tests randomize the kill point; CI kills a real
// daemon mid-stream and byte-compares the recovered dump against an
// uninterrupted reference).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/megh_policy.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"
#include "sim/datacenter.hpp"

namespace megh::serve {

struct ServeOptions {
  std::filesystem::path dir;
  /// Compact on the request that journals this many WAL records since the
  /// last compaction (0 = only on explicit Checkpoint requests).
  int compact_every = 4096;
  /// fsync WAL appends and snapshot writes. Off = bench/test mode; the
  /// durability contract only holds with it on.
  bool fsync = true;
  /// Recover-and-inspect mode: no WAL writer is opened, no compaction
  /// runs, and mutating requests are rejected. Used by
  /// `megh_serve --recover-only` and the CI byte-compare job (opening a
  /// writer would add a segment and perturb the directory under audit).
  bool read_only = false;
  /// When > 0, recovery stops after applying WAL seq `replay_to` (the
  /// snapshot used must not be newer). Requires read_only. This is how
  /// the CI job replays an uninterrupted reference directory to the exact
  /// seq a killed daemon recovered to.
  std::uint64_t replay_to = 0;
};

class MeghServer {
 public:
  /// Opens (and if needed creates) the serve directory, then recovers
  /// whatever state it holds. Throws IoError/ConfigError on corruption —
  /// refusing to serve beats serving from damaged state.
  explicit MeghServer(ServeOptions options);

  MeghServer(const MeghServer&) = delete;
  MeghServer& operator=(const MeghServer&) = delete;

  /// Framed entry point: dispatch one request, returning the response
  /// payload (status byte first; see wire.hpp). Exceptions become error
  /// responses, so one bad request never tears down the daemon.
  std::vector<std::uint8_t> handle(MsgType type,
                                   std::span<const std::uint8_t> payload);

  // Typed API (throws on error). Each call locks the state mutex; requests
  // serialize in arrival order, which is what keeps the WAL a total order.
  // Decide and Observe journal `payload`, the request exactly as received,
  // which must decode to `req`.
  void init(const InitRequest& req);
  DecideResponse decide(const DecideRequest& req,
                        std::span<const std::uint8_t> payload);
  ObserveResponse observe(const ObserveRequest& req,
                          std::span<const std::uint8_t> payload);
  CheckpointResponse checkpoint();
  StatsResponse stats_response();
  WalStatusResponse wal_status();

  bool initialized() const;
  /// Last WAL seq recovered at construction (0 on a fresh directory).
  std::uint64_t recovered_seq() const { return recovered_seq_; }
  std::uint64_t next_seq() const;

  /// Serialize the complete server state (placement mirror, demands,
  /// pending SARSA, embedded v4 policy checkpoint) — the same bytes a
  /// compaction snapshot holds. Two servers that dump identical bytes are
  /// in identical states; the CI crash-recovery job compares these.
  void dump_state(std::ostream& out);

 private:
  void recover();
  /// Rebuild the state from `init`, the newest snapshot at or below `cap`
  /// and the scanned records after it, up to seq `cap`. Returns
  /// 0, or the seq of the scan's final record when that record decodes but
  /// its apply throws; the state is then partly applied and must be
  /// rebuilt below that seq.
  std::uint64_t replay(const InitRequest& init, const WalScan& scan,
                       std::uint64_t cap);
  void apply_init(const InitRequest& req);
  /// Applies the carried observation (if any), then decides.
  void apply_decide(const DecideRequest& req,
                    std::vector<MigrationAction>& out);
  void apply_observe(const ObserveRequest& req);
  /// Client-input checks, run before any mutation (and before anything is
  /// journaled): a request that fails here gets an error response and
  /// leaves state, journal, and RNG stream untouched. validate_decide
  /// covers the carried observation too.
  void validate_decide(const DecideRequest& req);
  void validate_observe(const ObserveRequest& req);
  /// Latch the daemon into a refuse-all-mutations state after a failure
  /// that may have left memory diverged from the journal.
  void poison(const std::string& why);
  void check_not_poisoned() const;
  /// Write `payload` to the WAL, run `apply` during its fsync, wait for
  /// the fsync; advances applied_seq_.
  void journal(MsgType type, std::span<const std::uint8_t> payload,
               const std::function<void()>& apply);
  void write_snapshot(std::ostream& out);
  void load_snapshot(const std::filesystem::path& path);
  /// Snapshot, rotate, unlink what the snapshot supersedes. Throws if the
  /// snapshot write or the rotation fails; a failed rotation poisons.
  CheckpointResponse compact_locked();
  /// Run compact_locked when the record just journaled is due one; log a
  /// failure instead of throwing it.
  void compact_if_due();
  /// The policy's own stats; fill_stats appends the serve.* counters.
  void fill_policy_stats(std::vector<StatEntry>& out);
  void fill_stats(std::vector<StatEntry>& out);

  ServeOptions options_;
  mutable std::mutex mutex_;

  // Mirrored world (valid once initialized_): specs + configs from Init,
  // live placement/demands, and the policy instance.
  bool initialized_ = false;
  InitRequest init_;
  std::optional<Datacenter> dc_;
  std::shared_ptr<const FatTreeTopology> network_;
  std::unique_ptr<MeghPolicy> policy_;

  // Journal.
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t records_since_compaction_ = 0;
  std::uint64_t snapshot_gen_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  std::uint64_t recovered_seq_ = 0;
  /// Seq of the last record journaled-and-applied (0 before any).
  std::uint64_t applied_seq_ = 0;

  // Counters, exported as serve.* by the Stats verb.
  long long decides_ = 0;
  long long observes_ = 0;  // Observe requests: end-of-run flushes
  long long steps_ = 0;
  long long compactions_ = 0;
  long long replayed_records_ = 0;
  /// Requests answered with an error status. Atomic because handle()
  /// counts failures outside the state mutex.
  std::atomic<long long> errors_{0};

  // Poison latch: set when live state may have diverged from the journal
  // (a failed apply, write or fsync of a journaled request) or the WAL
  // writer can no longer append (a failed rotation). Mutating requests are
  // refused until a restart replays the consistent prefix.
  bool poisoned_ = false;
  std::string poison_reason_;

  // Reused per-request scratch.
  std::vector<MigrationAction> actions_;
  std::vector<int> changed_vms_;
  std::vector<double> ram_scratch_;
  std::vector<std::pair<int, int>> moved_scratch_;
  PolicyStats stats_scratch_;
};

}  // namespace megh::serve
