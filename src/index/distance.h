// Distance kernels for vector search. All kernels return a value where
// *smaller is closer*, so inner product and cosine are negated/flipped into
// distances.
//
// The kernels come in ISA tiers (scalar / NEON / AVX2+FMA / AVX-512) compiled
// into separate translation units and selected ONCE at startup via cpuid
// (`ActiveKernels()`). Setting the environment variable `DHNSW_FORCE_SCALAR`
// to anything but "0" pins the process to the scalar tier — the parity tests
// and CI run both ways.
//
// Four kernel shapes:
//  - pair:    one (query, vector) pair -> one distance,
//  - gather:  one query against n rows of a row-major base matrix addressed
//             by id (out[i] = dist(q, base + ids[i]*dim)), with software
//             prefetch of upcoming rows — the HNSW neighbor-expansion shape,
//  - rows:    one query against n *contiguous* rows,
//  - tile:    up to kTileQueries queries against n contiguous rows
//             (out[i*n + j] = dist(queries[i], rows + j*dim)) — the exact
//             scan's shape: a row's loads serve several queries at once.
//
// Numerical contract (holds for every tier):
//  - all tiers accumulate in balanced partial sums (8/16 stripes), so any two
//    tiers agree within a few ULPs; the parity suite enforces <= 4 ULPs
//    against the scalar reference (use `UlpDiff` for principled comparison),
//  - within one tier, gather/rows/tile results are bit-identical to the pair
//    kernel applied per element, with the query as the pair's first operand
//    (the tile keeps each pair's own stripes and reduction order and only
//    shares the row's loads between queries),
//  - cosine zero-vector convention: whenever the norm product is not a
//    positive finite number (either vector has zero norm, or the product
//    underflows/overflows to 0/inf/NaN), the distance is exactly 1.0f —
//    "maximally unrelated", matching an orthogonal pair. Every tier
//    implements this by checking `!(norm_product > 0) || isinf` on the same
//    float expression sqrt(na)*sqrt(nb).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace dhnsw {

enum class Metric : uint8_t {
  kL2,            ///< squared Euclidean distance
  kInnerProduct,  ///< -(a . b): maximizing IP == minimizing this
  kCosine,        ///< 1 - cos(a, b)
};

std::string_view MetricName(Metric metric) noexcept;

/// ISA tier of a kernel table. Order = preference (higher is wider).
enum class SimdTier : uint8_t { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

std::string_view SimdTierName(SimdTier tier) noexcept;

/// Raw kernel signatures — pointer + dim, no span bookkeeping in hot loops.
using PairKernel = float (*)(const float* a, const float* b, size_t dim) noexcept;
using GatherKernel = void (*)(const float* query, const float* base, size_t dim,
                              const uint32_t* ids, size_t n, float* out) noexcept;
using RowsKernel = void (*)(const float* query, const float* rows, size_t dim,
                            size_t n, float* out) noexcept;
/// `nq` (1..kTileQueries) queries against `n` contiguous rows; query i's
/// distances land in out[i*n, i*n + n).
using TileKernel = void (*)(const float* const* queries, size_t nq, const float* rows,
                            size_t dim, size_t n, float* out) noexcept;

/// Most queries one tile kernel call scores.
inline constexpr size_t kTileQueries = 4;

/// One ISA tier's full kernel set. Hot paths hoist the table (or individual
/// function pointers) out of their loops once instead of re-dispatching.
struct KernelTable {
  SimdTier tier;
  PairKernel l2, ip, cosine;
  GatherKernel l2_gather, ip_gather, cosine_gather;
  RowsKernel l2_rows, ip_rows, cosine_rows;
  TileKernel l2_tile, ip_tile, cosine_tile;

  PairKernel Pair(Metric m) const noexcept {
    switch (m) {
      case Metric::kL2: return l2;
      case Metric::kInnerProduct: return ip;
      case Metric::kCosine: return cosine;
    }
    return l2;
  }
  GatherKernel Gather(Metric m) const noexcept {
    switch (m) {
      case Metric::kL2: return l2_gather;
      case Metric::kInnerProduct: return ip_gather;
      case Metric::kCosine: return cosine_gather;
    }
    return l2_gather;
  }
  RowsKernel Rows(Metric m) const noexcept {
    switch (m) {
      case Metric::kL2: return l2_rows;
      case Metric::kInnerProduct: return ip_rows;
      case Metric::kCosine: return cosine_rows;
    }
    return l2_rows;
  }
  TileKernel Tile(Metric m) const noexcept {
    switch (m) {
      case Metric::kL2: return l2_tile;
      case Metric::kInnerProduct: return ip_tile;
      case Metric::kCosine: return cosine_tile;
    }
    return l2_tile;
  }
};

/// The tier selected once at startup: the widest tier this binary was
/// compiled with AND this CPU supports, unless DHNSW_FORCE_SCALAR pins it.
const KernelTable& ActiveKernels() noexcept;
SimdTier ActiveTier() noexcept;

/// Every tier usable in this process (compiled in and CPU-supported), scalar
/// first. The parity suite iterates this.
std::span<const SimdTier> AvailableTiers() noexcept;
const KernelTable& KernelsForTier(SimdTier tier) noexcept;

/// --- span-based compatibility API (routes through ActiveKernels) ---

float L2Sq(std::span<const float> a, std::span<const float> b) noexcept;
float InnerProduct(std::span<const float> a, std::span<const float> b) noexcept;
float CosineDistance(std::span<const float> a, std::span<const float> b) noexcept;

/// Dispatches on `metric`. Hot loops should hoist the dispatch by grabbing
/// ActiveKernels() once; this is for generic code paths.
float Distance(Metric metric, std::span<const float> a, std::span<const float> b) noexcept;

/// Function-pointer form for hoisting dispatch out of loops.
using DistanceFn = float (*)(std::span<const float>, std::span<const float>) noexcept;
DistanceFn DistanceFunction(Metric metric) noexcept;

/// Batched one-to-many scoring: out[i] = dist(query, base + ids[i]*dim) for
/// each of ids.size() rows of the row-major `base` matrix, prefetching
/// upcoming rows. Generic entry point; hot loops hoist via ActiveKernels().
void DistanceBatch(Metric metric, std::span<const float> query, const float* base,
                   size_t dim, std::span<const uint32_t> ids, float* out) noexcept;

/// --- ULP comparison helpers (parity tests, benches) ---

/// Distance in units-in-the-last-place between two floats: 0 for bitwise
/// equality (also +0 vs -0), saturating at INT32_MAX when either is NaN (two
/// NaNs compare as 0 apart) or the values straddle infinity.
int32_t UlpDiff(float a, float b) noexcept;

/// True when UlpDiff(a, b) <= max_ulps.
bool UlpClose(float a, float b, int32_t max_ulps) noexcept;

}  // namespace dhnsw
