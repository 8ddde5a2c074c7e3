// CRC-32C (Castagnoli) against the published check value and a bit-at-a-
// time reference, so a faster table layout cannot change a single WAL
// checksum.
#include "common/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace megh {
namespace {

/// Bytewise, table-free CRC-32C: the definition the fast path must match.
std::uint32_t reference_crc32c(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32c(check, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(check, 0), 0u);
}

TEST(Crc32cTest, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(11);
  std::vector<std::uint8_t> buf(300 + 8);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32c(p, len), reference_crc32c(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32cTest, PiecewiseSeedEqualsWholeBuffer) {
  Rng rng(12);
  std::vector<std::uint8_t> buf(257);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); split += 13) {
    const std::uint32_t head = crc32c(buf.data(), split);
    EXPECT_EQ(crc32c(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace megh
