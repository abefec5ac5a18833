// Internal glue between the dispatcher (distance.cpp) and the per-ISA kernel
// translation units (distance_avx512.cpp / distance_avx2.cpp /
// distance_neon.cpp). Each TU is compiled with its own -m flags and exposes
// exactly one KernelTable; the dispatcher picks one at startup via cpuid.
//
// The gather/rows loop shapes are identical across tiers, so they live here
// as templates over the tier's (inlined) pair kernels — instantiated inside
// each TU they compile under that TU's ISA flags and inline fully. The tile
// shape is a template too for the scalar and NEON tiers; AVX2 and AVX-512
// hand-block it so a row's loads serve several queries.
#pragma once

#include "index/distance.h"

namespace dhnsw::detail {

/// Scalar reference tier — always available, and the baseline the parity
/// suite compares every other tier against.
const KernelTable& ScalarKernels() noexcept;

// Tier tables are only declared when CMake found compiler support
// (DHNSW_HAVE_* are private compile definitions of dhnsw_index). Calling one
// on a CPU without the ISA is undefined; the dispatcher checks cpuid first.
#if defined(DHNSW_HAVE_AVX2)
const KernelTable& Avx2Kernels() noexcept;
#endif
#if defined(DHNSW_HAVE_AVX512)
const KernelTable& Avx512Kernels() noexcept;
#endif
#if defined(DHNSW_HAVE_NEON)
const KernelTable& NeonKernels() noexcept;
#endif

/// Shared cosine epilogue — the single definition of the zero-vector
/// convention (distance.h "Numerical contract"): every tier reduces its
/// stripes to (dot, na, nb) floats and finishes through this exact
/// expression, so the convention cannot drift between tiers.
inline float FinishCosine(float dot, float na, float nb) noexcept {
  const float denom = __builtin_sqrtf(na) * __builtin_sqrtf(nb);
  if (!(denom > 0.0f) || __builtin_isinf(denom)) return 1.0f;
  return 1.0f - dot / denom;
}

/// Touches the first cache lines of an upcoming row so the scoring loop finds
/// them resident. Long rows (e.g. GIST's 960 floats) only prefetch their head
/// — the hardware streamer follows once the kernel walks the row.
inline void PrefetchRow(const float* row, size_t dim) noexcept {
  constexpr size_t kBytesPerLine = 64;
  constexpr size_t kMaxLines = 4;
  const size_t bytes = dim * sizeof(float);
  const size_t lines = bytes < kBytesPerLine * kMaxLines
                           ? (bytes + kBytesPerLine - 1) / kBytesPerLine
                           : kMaxLines;
  const char* p = reinterpret_cast<const char*>(row);
  for (size_t i = 0; i < lines; ++i) {
    __builtin_prefetch(p + i * kBytesPerLine, /*rw=*/0, /*locality=*/3);
  }
}

/// out[i] = Pair(query, base + ids[i]*dim). Bit-identical to calling the pair
/// kernel per element (the parity suite asserts this), plus prefetch of the
/// row kLookahead iterations ahead.
template <PairKernel Pair>
void GatherImpl(const float* query, const float* base, size_t dim,
                const uint32_t* ids, size_t n, float* out) noexcept {
  constexpr size_t kLookahead = 4;
  const size_t head = n < kLookahead ? n : kLookahead;
  for (size_t i = 0; i < head; ++i) {
    PrefetchRow(base + static_cast<size_t>(ids[i]) * dim, dim);
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kLookahead < n) {
      PrefetchRow(base + static_cast<size_t>(ids[i + kLookahead]) * dim, dim);
    }
    out[i] = Pair(query, base + static_cast<size_t>(ids[i]) * dim, dim);
  }
}

/// out[i] = Pair(query, rows + i*dim) over contiguous rows. The linear walk
/// is hardware-prefetcher friendly; no software prefetch needed.
template <PairKernel Pair>
void RowsImpl(const float* query, const float* rows, size_t dim, size_t n,
              float* out) noexcept {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Pair(query, rows + i * dim, dim);
  }
}

/// out[i*n + j] = Pair(queries[i], rows + j*dim): the tile shape as a plain
/// loop over the pair kernel, row-major so each row is still in L1 for
/// every query.
template <PairKernel Pair>
void TileImpl(const float* const* queries, size_t nq, const float* rows, size_t dim,
              size_t n, float* out) noexcept {
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < nq; ++i) out[i * n + j] = Pair(queries[i], rows + j * dim, dim);
  }
}

}  // namespace dhnsw::detail
