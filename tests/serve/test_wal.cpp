// WAL framing, rotation, and the corruption matrix (serve/wal.hpp):
// torn tails are dropped, everything else — CRC damage, duplicate or
// out-of-order seqs, missing segments — is fatal with a located error.
#include "serve/wal.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32c.hpp"
#include "common/error.hpp"

namespace megh::serve {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("megh_wal_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::uint8_t> payload(int n, std::uint8_t fill) {
    return std::vector<std::uint8_t>(static_cast<std::size_t>(n), fill);
  }

  std::vector<std::uint8_t> read_file(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
  }

  void write_file(const std::filesystem::path& p,
                  const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  // Raw record framing, mirroring wal.cpp — used to hand-craft corrupt
  // streams the writer itself refuses to produce.
  static std::vector<std::uint8_t> raw_record(std::uint64_t seq,
                                              std::uint16_t type,
                                              std::span<const std::uint8_t> p) {
    std::vector<std::uint8_t> rec(18 + p.size());
    const auto len = static_cast<std::uint32_t>(p.size());
    for (int i = 0; i < 4; ++i) {
      rec[static_cast<std::size_t>(4 + i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
    for (int i = 0; i < 8; ++i) {
      rec[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(seq >> (8 * i));
    }
    rec[16] = static_cast<std::uint8_t>(type & 0xff);
    rec[17] = static_cast<std::uint8_t>(type >> 8);
    std::copy(p.begin(), p.end(), rec.begin() + 18);
    const std::uint32_t crc = crc32c(rec.data() + 4, rec.size() - 4);
    for (int i = 0; i < 4; ++i) {
      rec[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    return rec;
  }

  std::filesystem::path dir_;
};

TEST_F(WalTest, AppendScanRoundTrip) {
  {
    WalWriter writer(dir_, 1, /*fsync=*/false);
    EXPECT_EQ(writer.append(2, payload(10, 0xAA)), 1u);
    EXPECT_EQ(writer.append(3, payload(0, 0)), 2u);
    EXPECT_EQ(writer.append(2, payload(500, 0x5C)), 3u);
    EXPECT_EQ(writer.next_seq(), 4u);
  }
  const WalScan scan = scan_wal(dir_);
  EXPECT_FALSE(scan.dropped_torn_tail);
  EXPECT_EQ(scan.next_seq, 4u);
  EXPECT_EQ(scan.segments, 1u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.records[0].type, 2u);
  EXPECT_EQ(scan.records[0].payload, payload(10, 0xAA));
  EXPECT_EQ(scan.records[1].payload.size(), 0u);
  EXPECT_EQ(scan.records[2].payload, payload(500, 0x5C));
}

TEST_F(WalTest, EmptyDirScansToSeqOne) {
  const WalScan scan = scan_wal(dir_);
  EXPECT_EQ(scan.next_seq, 1u);
  EXPECT_TRUE(scan.records.empty());
}

TEST_F(WalTest, RotationSplitsSegmentsAndScanStitchesThem) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(8, 1));
    writer.append(2, payload(8, 2));
    writer.rotate(3);
    writer.append(2, payload(8, 3));
  }
  EXPECT_EQ(list_wal_segments(dir_).size(), 2u);
  const WalScan scan = scan_wal(dir_);
  EXPECT_EQ(scan.segments, 2u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].seq, 3u);
  EXPECT_EQ(scan.records[2].payload, payload(8, 3));
}

TEST_F(WalTest, TornFinalRecordIsDroppedNotFatal) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(40, 1));
    writer.append(2, payload(40, 2));
  }
  const auto path = dir_ / wal_segment_name(1);
  const auto size = std::filesystem::file_size(path);
  // Chop into the middle of record 2's payload — a torn write.
  std::filesystem::resize_file(path, size - 25);
  const WalScan scan = scan_wal(dir_);
  EXPECT_TRUE(scan.dropped_torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, payload(40, 1));
  EXPECT_EQ(scan.next_seq, 2u);
  EXPECT_NE(scan.torn_detail.find("torn final record"), std::string::npos);
}

TEST_F(WalTest, TornRecordHeaderIsDroppedToo) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(16, 1));
    writer.append(2, payload(16, 2));
  }
  const auto path = dir_ / wal_segment_name(1);
  // Leave only 5 bytes of record 2's 18-byte header.
  std::filesystem::resize_file(path, 18 + (18 + 16) + 5);
  const WalScan scan = scan_wal(dir_);
  EXPECT_TRUE(scan.dropped_torn_tail);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST_F(WalTest, TornSegmentHeaderAfterSealedSegmentIsDropped) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(8, 1));
    writer.rotate(2);
    // Crash "during" the fresh segment's header write:
  }
  const auto path = dir_ / wal_segment_name(2);
  std::filesystem::resize_file(path, 7);
  const WalScan scan = scan_wal(dir_);
  EXPECT_TRUE(scan.dropped_torn_tail);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.next_seq, 2u);
}

TEST_F(WalTest, BitFlipInRecordIsFatalWithOffset) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(64, 7));
    writer.append(2, payload(64, 9));
  }
  const auto path = dir_ / wal_segment_name(1);
  std::vector<std::uint8_t> bytes = read_file(path);
  // Flip one payload bit inside record 1 (offset 18 header + 18 + mid).
  bytes[18 + 18 + 30] ^= 0x40;
  write_file(path, bytes);
  try {
    scan_wal(dir_);
    FAIL() << "bit flip not detected";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 18"), std::string::npos) << what;
  }
}

TEST_F(WalTest, BitFlipInNonFinalRecordIsFatalEvenThoughTailIsFine) {
  // Corruption in the middle of the stream must never be confused with a
  // torn tail: the suffix records are unreachable evidence of damage.
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(32, 1));
    writer.append(2, payload(32, 2));
    writer.append(2, payload(32, 3));
  }
  const auto path = dir_ / wal_segment_name(1);
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[18 + (18 + 32) + 18 + 4] ^= 0x01;  // record 2's payload
  write_file(path, bytes);
  EXPECT_THROW(scan_wal(dir_), IoError);
}

TEST_F(WalTest, DuplicateSeqIsFatal) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(8, 1));
  }
  const auto path = dir_ / wal_segment_name(1);
  std::vector<std::uint8_t> bytes = read_file(path);
  const std::vector<std::uint8_t> dup = raw_record(1, 2, payload(8, 1));
  bytes.insert(bytes.end(), dup.begin(), dup.end());
  write_file(path, bytes);
  try {
    scan_wal(dir_);
    FAIL() << "duplicate seq not detected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate or out-of-order"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(WalTest, OutOfOrderSeqIsFatal) {
  std::vector<std::uint8_t> segment(18);
  std::memcpy(segment.data(), "MEGHWAL1", 8);
  segment[8] = 1;  // start_seq = 1, little-endian
  const std::vector<std::uint8_t> r1 = raw_record(1, 2, payload(4, 1));
  const std::vector<std::uint8_t> r3 = raw_record(3, 2, payload(4, 3));
  segment.insert(segment.end(), r1.begin(), r1.end());
  segment.insert(segment.end(), r3.begin(), r3.end());  // skips seq 2
  write_file(dir_ / wal_segment_name(1), segment);
  EXPECT_THROW(scan_wal(dir_), IoError);
}

TEST_F(WalTest, MissingMiddleSegmentIsFatal) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(8, 1));
    writer.rotate(2);
    writer.append(2, payload(8, 2));
    writer.rotate(3);
    writer.append(2, payload(8, 3));
  }
  std::filesystem::remove(dir_ / wal_segment_name(2));
  try {
    scan_wal(dir_);
    FAIL() << "missing segment not detected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("missing or misordered"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(WalTest, TruncationInSealedSegmentIsFatal) {
  // A torn tail is only legal in the *last* segment; a short read anywhere
  // earlier means lost acknowledged records.
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(64, 1));
    writer.rotate(2);
    writer.append(2, payload(8, 2));
  }
  const auto sealed = dir_ / wal_segment_name(1);
  std::filesystem::resize_file(sealed,
                               std::filesystem::file_size(sealed) - 10);
  EXPECT_THROW(scan_wal(dir_), IoError);
}

TEST_F(WalTest, BadMagicIsFatal) {
  {
    WalWriter writer(dir_, 1, false);
    writer.append(2, payload(8, 1));
  }
  const auto path = dir_ / wal_segment_name(1);
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  EXPECT_THROW(scan_wal(dir_), IoError);
}

TEST_F(WalTest, FreshWriterTruncatesTornLeftoverAtSameSeq) {
  // Recovery always opens a fresh segment at applied_seq + 1. If a torn
  // leftover with that exact name exists (crash after header write, before
  // any complete record), it is truncated — any complete record in it
  // would have advanced recovery past this seq.
  write_file(dir_ / wal_segment_name(5), {0x01, 0x02, 0x03});
  {
    WalWriter writer(dir_, 5, false);
    writer.append(2, payload(8, 9));
  }
  const WalScan scan = scan_wal(dir_);
  EXPECT_FALSE(scan.dropped_torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 5u);
}

TEST_F(WalTest, PoisonedWriterRefusesAllFurtherWrites) {
  // After any append failure the writer must latch shut: the failed
  // record's bytes may already sit in the file, so a further append would
  // follow them with a second record at the same seq and the next scan
  // would reject the whole segment as mid-chain damage. The latch keeps
  // the partial bytes as a benign torn tail instead.
  WalWriter writer(dir_, 1, false);
  writer.append(2, payload(8, 1));
  EXPECT_FALSE(writer.poisoned());
  writer.poison("simulated write failure");
  EXPECT_TRUE(writer.poisoned());
  EXPECT_THROW(writer.append(2, payload(8, 2)), IoError);
  EXPECT_THROW(writer.append(2, payload(8, 2)), IoError);
  EXPECT_THROW(writer.rotate(writer.next_seq()), IoError);
  // next_seq never advanced past the last durable record...
  EXPECT_EQ(writer.next_seq(), 2u);
  // ...and the segment still scans clean with exactly the acked record.
  const WalScan scan = scan_wal(dir_);
  EXPECT_FALSE(scan.dropped_torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
}

TEST_F(WalTest, OverlappedWorkRunsAfterTheWriteAndBeforeTheAck) {
  // append writes the record, runs its work while the fsync is in flight
  // (on the syncer thread when fsync is on), and returns after both.
  for (const bool fsync : {false, true}) {
    SCOPED_TRACE(fsync ? "fsync on" : "fsync off");
    const auto dir = dir_ / (fsync ? "on" : "off");
    {
      WalWriter writer(dir, 1, fsync);
      std::uintmax_t size_during_work = 0;
      EXPECT_EQ(writer.append(2, payload(100, 7),
                              [&] {
                                size_during_work = std::filesystem::file_size(
                                    writer.segment_path());
                              }),
                1u);
      EXPECT_EQ(size_during_work, 18u + 18u + 100u)
          << "the record must be written before the work runs";
      for (std::uint64_t seq = 2; seq <= 20; ++seq) {
        EXPECT_EQ(writer.append(3, payload(static_cast<int>(seq), 1)), seq);
      }
      writer.rotate(writer.next_seq());
      EXPECT_EQ(writer.append(2, payload(5, 2), [] {}), 21u);
      if (!fsync) {
        EXPECT_EQ(writer.fsync_us(), 0);
        EXPECT_EQ(writer.sync_wait_us(), 0);
      }
    }
    const WalScan scan = scan_wal(dir);
    EXPECT_FALSE(scan.dropped_torn_tail);
    EXPECT_EQ(scan.records.size(), 21u);
    EXPECT_EQ(scan.next_seq, 22u);
  }
}

TEST_F(WalTest, ThrowingOverlappedWorkPoisonsAndKeepsItsRecordLast) {
  // The record was written before its work failed, so it holds its seq;
  // nothing may follow it, because recovery drops a record whose apply
  // fails only when it is the final one.
  for (const bool fsync : {false, true}) {
    SCOPED_TRACE(fsync ? "fsync on" : "fsync off");
    const auto dir = dir_ / (fsync ? "on" : "off");
    {
      WalWriter writer(dir, 1, fsync);
      writer.append(2, payload(8, 1));
      try {
        writer.append(2, payload(8, 2), [] { throw Error("apply failed"); });
        FAIL() << "the work's exception was swallowed";
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "apply failed");
      }
      EXPECT_TRUE(writer.poisoned());
      EXPECT_EQ(writer.next_seq(), 3u);
      EXPECT_THROW(writer.append(2, payload(8, 3)), IoError);
      EXPECT_THROW(writer.rotate(writer.next_seq()), IoError);
    }
    const WalScan scan = scan_wal(dir);
    EXPECT_FALSE(scan.dropped_torn_tail);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[1].seq, 2u);
    EXPECT_EQ(scan.last_record_path, dir / wal_segment_name(1));
    EXPECT_EQ(scan.last_record_offset, 18u + 18u + 8u);
  }
}

}  // namespace
}  // namespace megh::serve
