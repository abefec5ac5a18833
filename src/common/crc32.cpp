#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/force_scalar.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dhnsw {
namespace {

// CRC-32C polynomial 0x1EDC6F41, bit-reflected as the CRC register holds it
// (bit 31 is x^0).
constexpr uint32_t kPoly = 0x82F63B78u;

// Table-driven CRC-32C.
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

#if defined(__x86_64__)
// a(x)·b(x) mod P, both operands in the register's reflected bit order.
constexpr uint32_t MulModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b >> 1) ^ ((b & 1) ? kPoly : 0u);
  }
  return product;
}

// x^n mod P, by square-and-multiply.
constexpr uint32_t XPowModP(uint64_t n) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t square = 1u << 30;  // x^1
  for (; n != 0; n >>= 1) {
    if (n & 1) result = MulModP(result, square);
    square = MulModP(square, square);
  }
  return result;
}

// Feeding `bytes` zero bytes through the CRC register multiplies it by
// x^(8·bytes) mod P (zlib's crc32_combine operator). The map is linear over
// GF(2), so it splits over the register's four bytes: table[k][b] is the
// product for byte value b in byte position k.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(size_t bytes) {
  const uint32_t op = XPowModP(8 * uint64_t{bytes});
  ShiftTable table{};
  for (uint32_t k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) table[k][b] = MulModP(op, b << (8 * k));
  }
  return table;
}

// One zero byte is one step of the table loop.
static_assert(MakeShiftTable(1)[0] == kTable);

uint32_t Shift(const ShiftTable& table, uint64_t crc) noexcept {
  return table[0][crc & 0xFF] ^ table[1][(crc >> 8) & 0xFF] ^ table[2][(crc >> 16) & 0xFF] ^
         table[3][(crc >> 24) & 0xFF];
}

uint64_t Load64(const uint8_t* p) noexcept {
  uint64_t word;
  std::memcpy(&word, p, sizeof word);  // any start offset is fine
  return word;
}

// While three kBlock-byte blocks remain, runs one `crc32` chain per block.
// The instruction has a 3-cycle latency but issues every cycle, so three
// independent chains run at its throughput where one runs at a third of it.
// Chains 1 and 2 start from zero; the CRC register is linear, so each is
// folded into chain 0 by shifting chain 0 past the next block.
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t ThreeWay(uint64_t crc0, const uint8_t*& p,
                                                    size_t& n) noexcept {
  static constexpr ShiftTable kShift = MakeShiftTable(kBlock);
  for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      crc0 = _mm_crc32_u64(crc0, Load64(p + i));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kBlock + i));
    }
    crc0 = Shift(kShift, crc0) ^ crc1;
    crc0 = Shift(kShift, crc0) ^ crc2;
  }
  return crc0;
}

// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC
// as the table: three-way interleaved over 8 KiB and then 256 B blocks, with
// a single chain of 8-byte steps and a byte tail for the rest.
__attribute__((target("sse4.2"))) uint32_t Sse42(const uint8_t* p, size_t n,
                                                 uint32_t seed) noexcept {
  uint64_t crc = ~seed;
  crc = ThreeWay<8192>(crc, p, n);
  crc = ThreeWay<256>(crc, p, n);
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, Load64(p));
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

}  // namespace

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed) noexcept {
  uint32_t crc = ~seed;
  for (uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

bool Crc32cHardwareSupported() noexcept {
#if defined(__x86_64__)
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
#else
  return false;
#endif
}

uint32_t Crc32cHardware(std::span<const uint8_t> data, uint32_t seed) noexcept {
#if defined(__x86_64__)
  if (Crc32cHardwareSupported()) return Sse42(data.data(), data.size(), seed);
#endif
  return Crc32cPortable(data, seed);
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) noexcept {
#if defined(__x86_64__)
  static const bool hardware = Crc32cHardwareSupported() && !ForceScalarFromEnv();
  if (hardware) return Sse42(data.data(), data.size(), seed);
#endif
  return Crc32cPortable(data, seed);
}

}  // namespace dhnsw
