// CRC-32C (Castagnoli), the checksum framing every WAL record written by
// the serving daemon (src/serve/wal.hpp). Chosen over CRC-32 (zlib
// polynomial) for its better error-detection properties on short records —
// the same reason ext4, Btrfs and RocksDB journal with it. Table-driven
// software implementation, eight bytes per step (slice-by-8): a served
// step checksums its whole ~19 KB record before the fsync, so per-byte
// speed is on the step's critical path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace megh {

/// CRC-32C of `data`, continuing from `seed` (pass the previous call's
/// return value to checksum a record in pieces). The seed/return values
/// are the finalized (post-inversion) CRC, so crc32c(b) == crc32c(b2,
/// crc32c(b1)) when b = b1 || b2.
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

inline std::uint32_t crc32c(const void* data, std::size_t size,
                            std::uint32_t seed = 0) {
  return crc32c(
      std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(data),
                                    size),
      seed);
}

}  // namespace megh
