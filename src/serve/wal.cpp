#include "serve/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>

#include "common/atomic_file.hpp"
#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"

namespace megh::serve {

namespace {

constexpr char kMagic[8] = {'M', 'E', 'G', 'H', 'W', 'A', 'L', '1'};
constexpr std::size_t kSegmentHeaderSize = 8 + 8 + 2;
constexpr std::size_t kRecordHeaderSize = 4 + 4 + 8 + 2;

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xff);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] |
                                    (static_cast<std::uint16_t>(in[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::filesystem::path& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(strf("wal: write to %s failed: %s",
                         path.string().c_str(), std::strerror(errno)));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string wal_segment_name(std::uint64_t start_seq) {
  return strf("wal-%020llu.log", static_cast<unsigned long long>(start_seq));
}

WalWriter::WalWriter(std::filesystem::path dir, std::uint64_t start_seq,
                     bool fsync)
    : dir_(std::move(dir)), fsync_(fsync) {
  std::filesystem::create_directories(dir_);
  open_segment(start_seq);
  if (fsync_) syncer_ = std::thread([this] { sync_loop(); });
}

WalWriter::~WalWriter() {
  if (syncer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sync_mutex_);
      stopping_ = true;
    }
    sync_start_.notify_one();
    syncer_.join();
  }
  close_segment();
}

void WalWriter::open_segment(std::uint64_t start_seq) {
  path_ = dir_ / wal_segment_name(start_seq);
  // O_TRUNC: a same-named leftover can only hold a torn tail of an
  // earlier incarnation at this seq (any *complete* record here would have
  // advanced the recovered next_seq past start_seq).
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw IoError(strf("wal: cannot open segment %s: %s",
                       path_.string().c_str(), std::strerror(errno)));
  }
  std::uint8_t header[kSegmentHeaderSize];
  std::memcpy(header, kMagic, 8);
  put_u64(header + 8, start_seq);
  put_u16(header + 16, 0);
  write_all(fd_, header, sizeof header, path_);
  if (fsync_) {
    if (::fsync(fd_) != 0) {
      throw IoError(strf("wal: fsync of %s failed: %s",
                         path_.string().c_str(), std::strerror(errno)));
    }
    // The segment's directory entry must survive a crash too.
    fsync_dir(dir_);
  }
  segment_start_ = start_seq;
  next_seq_ = start_seq;
}

void WalWriter::close_segment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::sync_loop() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  for (;;) {
    sync_start_.wait(
        lock, [this] { return stopping_ || sync_requested_ != sync_done_; });
    if (stopping_) return;
    // fd_ only changes between appends, never while a sync is requested,
    // and the request's mutex handoff publishes it.
    const int fd = fd_;
    lock.unlock();
    const Stopwatch watch;
    const int err = ::fsync(fd) == 0 ? 0 : errno;
    const double ms = watch.elapsed_ms();
    lock.lock();
    sync_errno_ = err;
    fsync_ns_ += static_cast<std::int64_t>(ms * 1e6);
    sync_done_ = sync_requested_;
    sync_finished_.notify_one();
  }
}

int WalWriter::wait_for_sync() {
  const Stopwatch watch;
  std::unique_lock<std::mutex> lock(sync_mutex_);
  sync_finished_.wait(lock, [this] { return sync_done_ == sync_requested_; });
  sync_wait_ns_ += static_cast<std::int64_t>(watch.elapsed_ms() * 1e6);
  return sync_errno_;
}

std::int64_t WalWriter::fsync_us() const {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  return fsync_ns_ / 1000;
}

std::uint64_t WalWriter::append(std::uint16_t type,
                                std::span<const std::uint8_t> payload,
                                const std::function<void()>& during_sync) {
  check_not_poisoned();
  const std::uint64_t seq = next_seq_;
  record_.resize(kRecordHeaderSize + payload.size());
  put_u32(record_.data() + 4, static_cast<std::uint32_t>(payload.size()));
  put_u64(record_.data() + 8, seq);
  put_u16(record_.data() + 16, type);
  std::copy(payload.begin(), payload.end(),
            record_.begin() + kRecordHeaderSize);
  const std::uint32_t crc = crc32c(record_.data() + 4, record_.size() - 4);
  put_u32(record_.data(), crc);
  try {
    write_all(fd_, record_.data(), record_.size(), path_);
  } catch (const std::exception& e) {
    // The record's bytes may be partially on disk. Appending after them
    // would follow the partial record with a second one carrying the same
    // seq, which the next scan would reject as mid-chain damage; refusing
    // all further writes leaves them as a benign torn tail instead.
    poison(e.what());
    throw;
  }
  // The record is complete in the file: it holds its seq whatever follows.
  ++next_seq_;
  if (fsync_) {
    {
      std::lock_guard<std::mutex> lock(sync_mutex_);
      ++sync_requested_;
    }
    sync_start_.notify_one();
  }
  std::exception_ptr failed;
  try {
    if (during_sync) during_sync();
  } catch (...) {
    failed = std::current_exception();
  }
  // Wait even when during_sync threw: the syncer must be idle before the
  // next rotation or the destructor touches fd_.
  const int sync_errno = fsync_ ? wait_for_sync() : 0;
  if (failed) {
    // Nothing may follow a record whose apply failed: recovery drops it
    // only as the log's final record.
    poison(strf("record seq %llu was written but the work overlapped with "
                "its fsync failed",
                static_cast<unsigned long long>(seq)));
    std::rethrow_exception(failed);
  }
  if (sync_errno != 0) {
    const std::string why = strf("wal: fsync of %s failed: %s",
                                 path_.string().c_str(),
                                 std::strerror(sync_errno));
    poison(why);
    throw IoError(why);
  }
  return seq;
}

void WalWriter::rotate(std::uint64_t start_seq) {
  check_not_poisoned();
  MEGH_ASSERT(start_seq == next_seq_,
              "wal: rotation must start at the next seq");
  close_segment();
  try {
    open_segment(start_seq);
  } catch (const std::exception& e) {
    // No open segment to write to; a later append would scribble on a
    // closed (or wrong) fd.
    poison(e.what());
    throw;
  }
}

void WalWriter::poison(std::string why) {
  if (poisoned_) return;
  poisoned_ = true;
  poison_reason_ = std::move(why);
  MEGH_LOG_ERROR("wal: writer poisoned: " + poison_reason_);
}

void WalWriter::check_not_poisoned() const {
  if (poisoned_) {
    throw IoError("wal: writer poisoned after an earlier failure (" +
                  poison_reason_ + ") — restart to recover");
  }
}

std::vector<std::filesystem::path> list_wal_segments(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> segments;
  if (!std::filesystem::exists(dir)) return segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (starts_with(name, "wal-") && name.ends_with(".log")) {
      segments.push_back(entry.path());
    }
  }
  // Zero-padded fixed-width seqs: lexicographic order is seq order.
  std::sort(segments.begin(), segments.end());
  return segments;
}

WalScan scan_wal(const std::filesystem::path& dir) {
  WalScan scan;
  const std::vector<std::filesystem::path> segments = list_wal_segments(dir);
  scan.segments = segments.size();
  bool have_expected = false;
  std::uint64_t expected = 1;  // next seq we must see
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::filesystem::path& path = segments[s];
    const bool last_segment = (s + 1 == segments.size());
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("wal: cannot open segment: " + path.string());
    std::vector<std::uint8_t> data(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    scan.bytes += data.size();

    if (data.size() < kSegmentHeaderSize) {
      if (last_segment) {
        // Torn while writing the header of a fresh segment: no records
        // could exist in it, so the stream simply ends at the previous
        // segment.
        scan.dropped_torn_tail = true;
        scan.torn_detail = strf("torn segment header in %s (%zu bytes)",
                                path.string().c_str(), data.size());
        scan.torn_path = path;
        scan.torn_offset = 0;
        break;
      }
      throw IoError(strf("wal: truncated segment header in %s",
                         path.string().c_str()));
    }
    if (std::memcmp(data.data(), kMagic, 8) != 0) {
      throw IoError(strf("wal: bad segment magic in %s",
                         path.string().c_str()));
    }
    const std::uint64_t start_seq = get_u64(data.data() + 8);
    if (have_expected && start_seq != expected) {
      throw IoError(strf(
          "wal: segment %s starts at seq %llu but %llu was expected "
          "(missing or misordered segment)",
          path.string().c_str(), static_cast<unsigned long long>(start_seq),
          static_cast<unsigned long long>(expected)));
    }
    expected = start_seq;
    have_expected = true;

    std::size_t pos = kSegmentHeaderSize;
    while (pos < data.size()) {
      const std::size_t remaining = data.size() - pos;
      bool torn = remaining < kRecordHeaderSize;
      std::uint32_t len = 0;
      if (!torn) {
        len = get_u32(data.data() + pos + 4);
        torn = remaining < kRecordHeaderSize + len;
      }
      if (torn) {
        if (!last_segment) {
          throw IoError(strf(
              "wal: truncated record at offset %zu in sealed segment %s",
              pos, path.string().c_str()));
        }
        scan.dropped_torn_tail = true;
        scan.torn_detail =
            strf("dropped torn final record at offset %zu in %s "
                 "(%zu bytes short)",
                 pos, path.string().c_str(),
                 kRecordHeaderSize + len - remaining);
        scan.torn_path = path;
        scan.torn_offset = pos;
        break;
      }
      const std::uint32_t stored_crc = get_u32(data.data() + pos);
      const std::uint32_t actual_crc =
          crc32c(data.data() + pos + 4, kRecordHeaderSize - 4 + len);
      if (stored_crc != actual_crc) {
        throw IoError(strf(
            "wal: CRC mismatch at offset %zu in %s (stored %08x, computed "
            "%08x) — segment is corrupt",
            pos, path.string().c_str(), stored_crc, actual_crc));
      }
      WalRecord record;
      record.seq = get_u64(data.data() + pos + 8);
      record.type = get_u16(data.data() + pos + 16);
      if (record.seq != expected) {
        throw IoError(strf(
            "wal: record at offset %zu in %s carries seq %llu but %llu was "
            "expected (duplicate or out-of-order record)",
            pos, path.string().c_str(),
            static_cast<unsigned long long>(record.seq),
            static_cast<unsigned long long>(expected)));
      }
      record.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(
                                               pos + kRecordHeaderSize),
                            data.begin() + static_cast<std::ptrdiff_t>(
                                               pos + kRecordHeaderSize + len));
      scan.records.push_back(std::move(record));
      scan.last_record_path = path;
      scan.last_record_offset = pos;
      ++expected;
      pos += kRecordHeaderSize + len;
    }
    if (scan.dropped_torn_tail) break;
  }
  scan.next_seq = have_expected ? expected : 1;
  if (scan.dropped_torn_tail) {
    MEGH_LOG_WARN("wal: " + scan.torn_detail);
  }
  return scan;
}

void heal_torn_tail(const WalScan& scan, bool fsync) {
  if (!scan.dropped_torn_tail) return;
  truncate_segment(scan.torn_path, scan.torn_offset, fsync);
  MEGH_LOG_INFO("wal: healed torn tail (" + scan.torn_detail + ")");
}

void truncate_segment(const std::filesystem::path& segment,
                      std::uint64_t offset, bool fsync) {
  if (offset == 0) {
    // The header itself never completed: no record could live here.
    std::filesystem::remove(segment);
  } else {
    std::filesystem::resize_file(segment, offset);
    if (fsync) fsync_file(segment);
  }
  if (fsync) fsync_dir(segment.parent_path());
}

}  // namespace megh::serve
