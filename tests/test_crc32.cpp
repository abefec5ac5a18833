#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace dhnsw {
namespace {

std::span<const uint8_t> Bytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(Crc32cTest, KnownVector) {
  // The canonical CRC-32C check value: crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(Crc32c(Bytes("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) {
  EXPECT_EQ(Crc32c({}), 0u);
}

TEST(Crc32cTest, RfcTestVectors) {
  // From RFC 3720 (iSCSI) appendix: 32 zero bytes and 32 0xFF bytes.
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, SensitiveToSingleBitFlip) {
  std::vector<uint8_t> data(100, 0x5A);
  const uint32_t base = Crc32c(data);
  for (size_t byte : {0u, 50u, 99u}) {
    data[byte] ^= 0x01;
    EXPECT_NE(Crc32c(data), base) << "flip at byte " << byte;
    data[byte] ^= 0x01;
  }
  EXPECT_EQ(Crc32c(data), base);
}

TEST(Crc32cTest, SensitiveToReordering) {
  const uint32_t ab = Crc32c(Bytes("ab"));
  const uint32_t ba = Crc32c(Bytes("ba"));
  EXPECT_NE(ab, ba);
}

TEST(Crc32cTest, ChainingViaSeedEqualsOneShot) {
  const auto all = Bytes("hello, disaggregated world");
  const uint32_t one_shot = Crc32c(all);
  const uint32_t first = Crc32c(all.subspan(0, 10));
  const uint32_t chained = Crc32c(all.subspan(10), first);
  EXPECT_EQ(chained, one_shot);
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

// The SSE4.2 path against the table-loop oracle: every length up to one
// page at every start offset modulo 8 (so each head/tail split of the
// 8-byte loop is hit), random seeds, and a 1 MB buffer.
TEST(Crc32cTest, HardwareMatchesPortableAtEveryLengthAndOffset) {
  if (!Crc32cHardwareSupported()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  const std::vector<uint8_t> data = RandomBytes(4096 + 8, 11);
  Xoshiro256 rng(13);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const auto s = std::span<const uint8_t>(data).subspan(offset, len);
      const uint32_t seed = len % 3 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32cHardware(s, seed), Crc32cPortable(s, seed))
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
  const std::vector<uint8_t> big = RandomBytes(1 << 20, 17);
  EXPECT_EQ(Crc32cHardware(big), Crc32cPortable(big));
  EXPECT_EQ(Crc32cHardware(std::span<const uint8_t>(big).subspan(3)),
            Crc32cPortable(std::span<const uint8_t>(big).subspan(3)));
}

// Input lengths where the SSE4.2 path changes shape: one round of three
// 256 B blocks, one and two rounds of three 8 KiB blocks, and one round of
// each tier back to back.
constexpr size_t kInterleaveSeams[] = {3 * 256, 3 * 8192, 3 * 8192 + 3 * 256, 6 * 8192};

// Every length within 16 bytes of each seam, at every start offset modulo 8,
// with random seeds.
TEST(Crc32cTest, HardwareMatchesPortableAtInterleaveSeams) {
  if (!Crc32cHardwareSupported()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  const std::vector<uint8_t> data = RandomBytes(6 * 8192 + 16 + 8, 29);
  Xoshiro256 rng(31);
  for (size_t seam : kInterleaveSeams) {
    for (size_t len = seam - 16; len <= seam + 16; ++len) {
      for (size_t offset = 0; offset < 8; ++offset) {
        const auto s = std::span<const uint8_t>(data).subspan(offset, len);
        const uint32_t seed = static_cast<uint32_t>(rng.Next());
        ASSERT_EQ(Crc32cHardware(s, seed), Crc32cPortable(s, seed))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
}

// Two chained calls whose split lands on or beside a seam must equal the
// oracle's one call over the whole input.
TEST(Crc32cTest, HardwareChainedCallsSplitAtInterleaveSeams) {
  if (!Crc32cHardwareSupported()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  const std::vector<uint8_t> data = RandomBytes(6 * 8192 + 64 + 8, 37);
  Xoshiro256 rng(41);
  for (size_t seam : kInterleaveSeams) {
    for (int delta : {-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16}) {
      const size_t split = seam + delta;
      for (size_t offset = 0; offset < 8; ++offset) {
        const auto all = std::span<const uint8_t>(data).subspan(offset, 6 * 8192 + 64);
        const uint32_t seed = static_cast<uint32_t>(rng.Next());
        const uint32_t head = Crc32cHardware(all.first(split), seed);
        ASSERT_EQ(Crc32cHardware(all.subspan(split), head), Crc32cPortable(all, seed))
            << "offset " << offset << " split " << split << " seed " << seed;
      }
    }
  }
}

TEST(Crc32cTest, HardwareChainedCallsEqualOneCall) {
  if (!Crc32cHardwareSupported()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  const std::vector<uint8_t> data = RandomBytes(5000, 19);
  const uint32_t one_shot = Crc32cHardware(data);
  ASSERT_EQ(one_shot, Crc32cPortable(data));
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    // Split into random pieces; chaining each piece's CRC as the next seed
    // must reproduce the one-shot value, on both paths.
    uint32_t hw = 0;
    uint32_t portable = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t len = std::min<size_t>(1 + rng.NextBounded(300), data.size() - pos);
      const auto piece = std::span<const uint8_t>(data).subspan(pos, len);
      hw = Crc32cHardware(piece, hw);
      portable = Crc32cPortable(piece, portable);
      pos += len;
    }
    ASSERT_EQ(hw, one_shot) << "trial " << trial;
    ASSERT_EQ(portable, one_shot) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dhnsw
