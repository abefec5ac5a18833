// The `DHNSW_FORCE_SCALAR` switch, shared by every runtime-dispatched kernel
// (the distance tiers in index/distance.h and CRC-32C in common/crc32.h).
#pragma once

#include <cstdlib>

namespace dhnsw {

/// True when DHNSW_FORCE_SCALAR is set to anything but "" or "0": dispatched
/// kernels then take their portable path instead of the widest ISA the CPU
/// supports. Read once per kernel family, at its first use.
inline bool ForceScalarFromEnv() noexcept {
  const char* env = std::getenv("DHNSW_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

}  // namespace dhnsw
