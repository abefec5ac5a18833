// Scalar reference kernels + the startup ISA dispatcher.
//
// The scalar kernels accumulate in 8 balanced stripes (not one running sum):
// striping bounds the summation error random-walk so wide-SIMD tiers, which
// also use balanced partial sums, stay within the 4-ULP parity budget even at
// dim 960 — and it lets the compiler auto-vectorize the baseline to SSE2.
#include "index/distance.h"

#include <cmath>
#include <vector>

#include "common/force_scalar.h"
#include "index/distance_kernels.h"

namespace dhnsw {

std::string_view MetricName(Metric metric) noexcept {
  switch (metric) {
    case Metric::kL2: return "l2";
    case Metric::kInnerProduct: return "ip";
    case Metric::kCosine: return "cosine";
  }
  return "?";
}

std::string_view SimdTierName(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kNeon: return "neon";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "?";
}

namespace detail {
namespace {

float L2SqScalar(const float* a, const float* b, size_t n) noexcept {
  float acc[8] = {};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const float d = a[i + j] - b[i + j];
      acc[j] += d * d;
    }
  }
  float tail = 0.0f;
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return (((acc[0] + acc[1]) + (acc[2] + acc[3])) +
          ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail;
}

float IpScalar(const float* a, const float* b, size_t n) noexcept {
  float acc[8] = {};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) acc[j] += a[i + j] * b[i + j];
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return -((((acc[0] + acc[1]) + (acc[2] + acc[3])) +
            ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail);
}

float CosineScalar(const float* a, const float* b, size_t n) noexcept {
  float dot[8] = {}, na[8] = {}, nb[8] = {};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      dot[j] += a[i + j] * b[i + j];
      na[j] += a[i + j] * a[i + j];
      nb[j] += b[i + j] * b[i + j];
    }
  }
  float dot_t = 0.0f, na_t = 0.0f, nb_t = 0.0f;
  for (; i < n; ++i) {
    dot_t += a[i] * b[i];
    na_t += a[i] * a[i];
    nb_t += b[i] * b[i];
  }
  const auto reduce = [](const float* s, float tail) {
    return (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail;
  };
  return FinishCosine(reduce(dot, dot_t), reduce(na, na_t), reduce(nb, nb_t));
}

}  // namespace

const KernelTable& ScalarKernels() noexcept {
  static constexpr KernelTable table = {
      SimdTier::kScalar,
      &L2SqScalar,
      &IpScalar,
      &CosineScalar,
      &GatherImpl<&L2SqScalar>,
      &GatherImpl<&IpScalar>,
      &GatherImpl<&CosineScalar>,
      &RowsImpl<&L2SqScalar>,
      &RowsImpl<&IpScalar>,
      &RowsImpl<&CosineScalar>,
      &TileImpl<&L2SqScalar>,
      &TileImpl<&IpScalar>,
      &TileImpl<&CosineScalar>,
  };
  return table;
}

}  // namespace detail

namespace {

bool CpuHasTier(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case SimdTier::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
#if defined(__aarch64__)
    case SimdTier::kNeon:
      return true;  // NEON is baseline on aarch64
#endif
    default:
      return false;
  }
}

/// Compiled-in tiers, widest last. Scalar is always slot 0.
std::vector<SimdTier> ComputeAvailableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
#if defined(DHNSW_HAVE_NEON)
  if (CpuHasTier(SimdTier::kNeon)) tiers.push_back(SimdTier::kNeon);
#endif
#if defined(DHNSW_HAVE_AVX2)
  if (CpuHasTier(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
#endif
#if defined(DHNSW_HAVE_AVX512)
  if (CpuHasTier(SimdTier::kAvx512)) tiers.push_back(SimdTier::kAvx512);
#endif
  return tiers;
}

}  // namespace

std::span<const SimdTier> AvailableTiers() noexcept {
  static const std::vector<SimdTier> tiers = ComputeAvailableTiers();
  return tiers;
}

const KernelTable& KernelsForTier(SimdTier tier) noexcept {
  switch (tier) {
#if defined(DHNSW_HAVE_AVX512)
    case SimdTier::kAvx512: return detail::Avx512Kernels();
#endif
#if defined(DHNSW_HAVE_AVX2)
    case SimdTier::kAvx2: return detail::Avx2Kernels();
#endif
#if defined(DHNSW_HAVE_NEON)
    case SimdTier::kNeon: return detail::NeonKernels();
#endif
    default: return detail::ScalarKernels();
  }
}

const KernelTable& ActiveKernels() noexcept {
  static const KernelTable& table = []() -> const KernelTable& {
    if (ForceScalarFromEnv()) return detail::ScalarKernels();
    return KernelsForTier(AvailableTiers().back());
  }();
  return table;
}

SimdTier ActiveTier() noexcept { return ActiveKernels().tier; }

float L2Sq(std::span<const float> a, std::span<const float> b) noexcept {
  return ActiveKernels().l2(a.data(), b.data(), a.size());
}

float InnerProduct(std::span<const float> a, std::span<const float> b) noexcept {
  return ActiveKernels().ip(a.data(), b.data(), a.size());
}

float CosineDistance(std::span<const float> a, std::span<const float> b) noexcept {
  return ActiveKernels().cosine(a.data(), b.data(), a.size());
}

float Distance(Metric metric, std::span<const float> a, std::span<const float> b) noexcept {
  return ActiveKernels().Pair(metric)(a.data(), b.data(), a.size());
}

DistanceFn DistanceFunction(Metric metric) noexcept {
  switch (metric) {
    case Metric::kL2: return &L2Sq;
    case Metric::kInnerProduct: return &InnerProduct;
    case Metric::kCosine: return &CosineDistance;
  }
  return &L2Sq;
}

void DistanceBatch(Metric metric, std::span<const float> query, const float* base,
                   size_t dim, std::span<const uint32_t> ids, float* out) noexcept {
  ActiveKernels().Gather(metric)(query.data(), base, dim, ids.data(), ids.size(), out);
}

int32_t UlpDiff(float a, float b) noexcept {
  if (std::isnan(a) || std::isnan(b)) {
    return (std::isnan(a) && std::isnan(b)) ? 0 : INT32_MAX;
  }
  if (std::isinf(a) || std::isinf(b)) {
    return a == b ? 0 : INT32_MAX;
  }
  // Map the float line onto a monotone integer line: positive floats keep
  // their bit pattern, negative floats are mirrored below zero. Adjacent
  // representable floats are then adjacent integers.
  const auto to_ordered = [](float f) -> int64_t {
    int32_t bits;
    __builtin_memcpy(&bits, &f, sizeof(bits));
    return bits >= 0 ? static_cast<int64_t>(bits)
                     : -static_cast<int64_t>(bits & 0x7FFFFFFF);
  };
  const int64_t diff = to_ordered(a) - to_ordered(b);
  const int64_t mag = diff < 0 ? -diff : diff;
  return mag > INT32_MAX ? INT32_MAX : static_cast<int32_t>(mag);
}

bool UlpClose(float a, float b, int32_t max_ulps) noexcept {
  return UlpDiff(a, b) <= max_ulps;
}

}  // namespace dhnsw
