// Write-ahead log for the megh_serve daemon (docs/SERVING.md).
//
// Every mutating request (Decide, Observe) is written to the log before
// it is applied, and its fsync runs on a syncer thread while the request
// thread applies it; the request is acknowledged only once both are done,
// so a client never sees state that is not durable. Recovery replays the
// stream through the identical apply path; since the server's state is a
// deterministic function of (Init, request stream), replay reproduces it
// bit for bit. A record whose apply throws is never acknowledged, and the
// writer refuses every append after it, so it can only be the stream's
// final record; recovery drops it (serve/server.hpp).
//
// On-disk layout inside the serve directory:
//     wal-<start_seq>.log      segments; <start_seq> = seq of the first
//                              record the segment can hold (20 digits,
//                              zero-padded, so lexicographic order = seq
//                              order)
// Segment header (18 bytes):   "MEGHWAL1" magic, u64 start_seq, u16
// reserved (zero). Record framing:
//     [u32 crc][u32 len][u64 seq][u16 type][payload: len bytes]
// crc is CRC-32C over everything after the crc field (len..payload).
// Sequence numbers are assigned by the writer, start at 1 and increase by
// exactly 1 per record across segment boundaries.
//
// Failure semantics on scan (the corruption-test matrix pins these):
//   - An *incomplete* record at the end of the LAST segment is a torn
//     final write: dropped with a warning, never fatal. Its bytes were
//     never acknowledged (the fsync hadn't returned), so dropping it is
//     correct, not lossy.
//   - A CRC mismatch on a fully-framed record is corruption and throws
//     IoError naming the segment and byte offset — silent data loss is the
//     one thing a journal must never do.
//   - Truncation anywhere except the last segment's tail is fatal: interior
//     segments were sealed by a later rotation, so a short read there is
//     damage, not a torn write.
//   - A duplicate, missing, or out-of-order seq is fatal (same reasoning).
//
// A new writer always starts a fresh segment (truncating a same-named
// leftover, which by construction holds only a torn tail): appending after
// a torn record would interleave valid data with garbage.
//
// A writer that fails mid-append poisons itself: the failed record's bytes
// may be partially on disk, so a further append would put a second record
// with the same seq after them and the next scan would reject the segment
// as mid-chain damage. Refusing all further writes instead leaves the
// partial bytes as the segment's tail — the benign torn-tail case recovery
// already drops and heals. The writer poisons itself too when the work
// overlapped with a record's fsync throws: that record was never
// acknowledged and must stay the last one, where recovery drops it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace megh::serve {

struct WalRecord {
  std::uint64_t seq = 0;
  std::uint16_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Result of scanning every segment in a serve directory.
struct WalScan {
  std::vector<WalRecord> records;
  /// Seq the next appended record must take (last record's seq + 1; the
  /// oldest surviving segment's start_seq when no records survive).
  std::uint64_t next_seq = 1;
  std::uint64_t segments = 0;
  std::uint64_t bytes = 0;
  bool dropped_torn_tail = false;
  std::string torn_detail;  // human-readable, for the recovery log line
  /// Where the tear sits, for heal_torn_tail: the segment holding it and
  /// the byte offset of the first torn byte (0 = the segment header itself
  /// is torn, i.e. the whole file is garbage).
  std::filesystem::path torn_path;
  std::uint64_t torn_offset = 0;
  /// Where the final complete record starts (empty path when there is
  /// none), so recovery can cut off an unacknowledged final record.
  std::filesystem::path last_record_path;
  std::uint64_t last_record_offset = 0;
};

class WalWriter {
 public:
  /// Opens a fresh segment wal-<start_seq>.log in `dir` (created if
  /// missing). With `fsync` false, appends skip the fsync — a bench/test
  /// mode; durability claims only hold with it on. With it on, the writer
  /// owns one syncer thread that fsyncs each record while `append` runs
  /// its overlapped work.
  WalWriter(std::filesystem::path dir, std::uint64_t start_seq, bool fsync);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append one record and return the seq it was assigned: write it,
  /// start its fsync on the syncer thread, run `during_sync` (when given)
  /// on the calling thread, then wait for the fsync. The record (and the
  /// segment header before it) is durable when this returns. Throws
  /// IoError on a write/fsync failure, and rethrows what `during_sync`
  /// throws; either way the writer is poisoned (see above), so the record
  /// stays the log's last, and every later append/rotate throws without
  /// touching the file. A failed write skips `during_sync`.
  std::uint64_t append(std::uint16_t type,
                       std::span<const std::uint8_t> payload,
                       const std::function<void()>& during_sync = {});

  /// Seal the current segment and start a new one at `start_seq` (must
  /// equal next_seq()). Used by compaction so the snapshot boundary
  /// coincides with a segment boundary.
  void rotate(std::uint64_t start_seq);

  /// Refuse all further appends/rotations (also triggered internally by a
  /// failed append — see the header comment; public for tests and for
  /// owners that detect divergence of their own).
  void poison(std::string why);
  bool poisoned() const { return poisoned_; }

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t segment_start() const { return segment_start_; }
  const std::filesystem::path& segment_path() const { return path_; }

  /// Total time the syncer thread spent in record fsyncs, and total time
  /// `append` waited for them after `during_sync` returned, in whole µs
  /// (both 0 with fsync off). Their difference is roughly the fsync time
  /// the overlap hid.
  std::int64_t fsync_us() const;
  std::int64_t sync_wait_us() const { return sync_wait_ns_ / 1000; }

 private:
  void open_segment(std::uint64_t start_seq);
  void close_segment();
  void check_not_poisoned() const;
  void sync_loop();
  /// Block until the fsync started for the last written record finished;
  /// returns its errno (0 on success).
  int wait_for_sync();

  std::filesystem::path dir_;
  std::filesystem::path path_;
  int fd_ = -1;
  bool fsync_ = true;
  bool poisoned_ = false;
  std::string poison_reason_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t segment_start_ = 1;
  std::vector<std::uint8_t> record_;  // reused framing buffer
  std::int64_t sync_wait_ns_ = 0;

  // Syncer handshake, guarded by sync_mutex_: append bumps sync_requested_
  // after writing a record; the syncer fsyncs fd_, records the outcome and
  // catches sync_done_ up.
  mutable std::mutex sync_mutex_;
  std::condition_variable sync_start_;
  std::condition_variable sync_finished_;
  std::uint64_t sync_requested_ = 0;
  std::uint64_t sync_done_ = 0;
  int sync_errno_ = 0;
  std::int64_t fsync_ns_ = 0;
  bool stopping_ = false;
  std::thread syncer_;
};

/// Segment filename for a start seq (shared with the scanner and tests).
std::string wal_segment_name(std::uint64_t start_seq);

/// List the WAL segments in `dir`, sorted by start_seq.
std::vector<std::filesystem::path> list_wal_segments(
    const std::filesystem::path& dir);

/// Scan and validate every segment in `dir` (see failure semantics above).
WalScan scan_wal(const std::filesystem::path& dir);

/// Physically remove a torn tail found by scan_wal: truncate the segment at
/// the tear (or unlink it when its header never completed). Writable
/// recovery calls this after replay — without it the torn bytes would sit
/// at the end of a by-then *sealed* segment, which the next scan would
/// rightly treat as fatal damage. No-op when the scan saw no tear.
void heal_torn_tail(const WalScan& scan, bool fsync);

/// Cut `segment` back to its first `offset` bytes (unlink it when
/// `offset` is 0), durably when `fsync` is on.
void truncate_segment(const std::filesystem::path& segment,
                      std::uint64_t offset, bool fsync);

}  // namespace megh::serve
