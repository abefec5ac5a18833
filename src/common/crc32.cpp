#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/force_scalar.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dhnsw {
namespace {

// Table-driven CRC-32C, polynomial 0x1EDC6F41 (reflected 0x82F63B78).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC
// as the table, eight bytes per instruction. Loads go through memcpy, so any
// start offset is fine.
__attribute__((target("sse4.2"))) uint32_t Sse42(const uint8_t* p, size_t n,
                                                 uint32_t seed) noexcept {
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
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
