// NEON kernel tier for aarch64, where NEON is baseline (no extra -m flags
// and no cpuid gate needed). 4 independent 4-lane accumulators, reduced
// pairwise via vpaddq — balanced partial sums within the 4-ULP parity budget
// against the scalar reference.
#if defined(DHNSW_HAVE_NEON)

#include <arm_neon.h>

#include "index/distance_kernels.h"

namespace dhnsw::detail {
namespace {

/// Pairwise horizontal sum: (l0+l1) + (l2+l3).
inline float ReduceAdd4(float32x4_t v) noexcept {
  const float32x2_t sum = vadd_f32(vget_low_f32(v), vget_high_f32(v));
  return vget_lane_f32(vpadd_f32(sum, sum), 0);
}

float L2SqNeon(const float* a, const float* b, size_t n) noexcept {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    const float32x4_t d1 = vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    const float32x4_t d2 = vsubq_f32(vld1q_f32(a + i + 8), vld1q_f32(b + i + 8));
    const float32x4_t d3 = vsubq_f32(vld1q_f32(a + i + 12), vld1q_f32(b + i + 12));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
    acc2 = vfmaq_f32(acc2, d2, d2);
    acc3 = vfmaq_f32(acc3, d3, d3);
  }
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
  }
  float sum = ReduceAdd4(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float IpNeon(const float* a, const float* b, size_t n) noexcept {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(a + i + 8), vld1q_f32(b + i + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(a + i + 12), vld1q_f32(b + i + 12));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float sum = ReduceAdd4(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return -sum;
}

float CosineNeon(const float* a, const float* b, size_t n) noexcept {
  float32x4_t dot0 = vdupq_n_f32(0.0f), dot1 = vdupq_n_f32(0.0f);
  float32x4_t na0 = vdupq_n_f32(0.0f), na1 = vdupq_n_f32(0.0f);
  float32x4_t nb0 = vdupq_n_f32(0.0f), nb1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t va0 = vld1q_f32(a + i), vb0 = vld1q_f32(b + i);
    const float32x4_t va1 = vld1q_f32(a + i + 4), vb1 = vld1q_f32(b + i + 4);
    dot0 = vfmaq_f32(dot0, va0, vb0);
    na0 = vfmaq_f32(na0, va0, va0);
    nb0 = vfmaq_f32(nb0, vb0, vb0);
    dot1 = vfmaq_f32(dot1, va1, vb1);
    na1 = vfmaq_f32(na1, va1, va1);
    nb1 = vfmaq_f32(nb1, vb1, vb1);
  }
  float dot = ReduceAdd4(vaddq_f32(dot0, dot1));
  float na = ReduceAdd4(vaddq_f32(na0, na1));
  float nb = ReduceAdd4(vaddq_f32(nb0, nb1));
  for (; i < n; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  return FinishCosine(dot, na, nb);
}

}  // namespace

const KernelTable& NeonKernels() noexcept {
  static constexpr KernelTable table = {
      SimdTier::kNeon,
      &L2SqNeon,
      &IpNeon,
      &CosineNeon,
      &GatherImpl<&L2SqNeon>,
      &GatherImpl<&IpNeon>,
      &GatherImpl<&CosineNeon>,
      &RowsImpl<&L2SqNeon>,
      &RowsImpl<&IpNeon>,
      &RowsImpl<&CosineNeon>,
      &TileImpl<&L2SqNeon>,
      &TileImpl<&IpNeon>,
      &TileImpl<&CosineNeon>,
  };
  return table;
}

}  // namespace dhnsw::detail

#endif  // DHNSW_HAVE_NEON
