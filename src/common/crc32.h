// CRC-32C (Castagnoli) used to checksum serialized cluster blobs so a torn or
// corrupt remote read is detected at deserialization time.
//
// `Crc32c` runs on the SSE4.2 `crc32` instruction when the CPU has it (three
// interleaved chains; one cpuid probe per process) and on a portable table
// loop otherwise, or when the environment variable `DHNSW_FORCE_SCALAR` is
// set (the same switch that pins the distance kernels to scalar,
// index/distance.h). CRC is a pure function: every path returns the same
// value for the same bytes.
#pragma once

#include <cstdint>
#include <span>

namespace dhnsw {

/// Computes CRC-32C over `data`, chained from `seed` (pass 0 to start).
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0) noexcept;

/// The portable byte-at-a-time table loop: the fallback path and the oracle
/// the hardware path is tested against.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed = 0) noexcept;

/// Whether this build and CPU can run the SSE4.2 path (ignores
/// DHNSW_FORCE_SCALAR, so tests can compare both paths on one machine).
bool Crc32cHardwareSupported() noexcept;

/// CRC-32C on the SSE4.2 instruction regardless of DHNSW_FORCE_SCALAR, for
/// the parity test. Where Crc32cHardwareSupported() is false it runs the
/// table loop instead.
uint32_t Crc32cHardware(std::span<const uint8_t> data, uint32_t seed = 0) noexcept;

}  // namespace dhnsw
