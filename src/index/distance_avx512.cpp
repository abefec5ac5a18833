// AVX-512F kernel tier, compiled with -mavx512f (see src/index/CMakeLists.txt).
// Only reachable after cpuid reports avx512f. Remainder elements are handled
// with a masked load instead of a scalar tail — one code path for every dim.
//
// Accumulation: 4 independent 16-lane accumulators reduced pairwise, plus a
// masked-tail accumulator; balanced partial sums keep parity with the scalar
// reference within the 4-ULP budget.
#if defined(DHNSW_HAVE_AVX512)

// GCC's AVX-512 cast/extract intrinsics read a self-initialized __m256d and
// falsely trip -Wuninitialized under -O (GCC PR105593); silence for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "index/distance_kernels.h"

namespace dhnsw::detail {
namespace {

/// Balanced shuffle/add tree (no sequential chain), written out by hand:
/// GCC 12's _mm512_reduce_add_ps macro trips -Wuninitialized under -Werror.
inline float ReduceAdd16(__m512 v) noexcept {
  const __m256 lo = _mm512_castps512_ps256(v);
  const __m256 hi = _mm256_castpd_ps(
      _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
  const __m256 s8 = _mm256_add_ps(lo, hi);            // lane i = v[i] + v[i+8]
  const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                               _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
  return _mm_cvtss_f32(s1);
}

float L2SqAvx512(const float* a, const float* b, size_t n) noexcept {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16));
    const __m512 d2 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 32), _mm512_loadu_ps(b + i + 32));
    const __m512 d3 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 48), _mm512_loadu_ps(b + i + 48));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
    acc2 = _mm512_fmadd_ps(d2, d2, acc2);
    acc3 = _mm512_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + i),
                                   _mm512_maskz_loadu_ps(m, b + i));
    acc1 = _mm512_fmadd_ps(d, d, acc1);
  }
  return ReduceAdd16(_mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                   _mm512_add_ps(acc2, acc3)));
}

float IpAvx512(const float* a, const float* b, size_t n) noexcept {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32), _mm512_loadu_ps(b + i + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48), _mm512_loadu_ps(b + i + 48), acc3);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                           _mm512_maskz_loadu_ps(m, b + i), acc1);
  }
  return -ReduceAdd16(_mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                    _mm512_add_ps(acc2, acc3)));
}

float CosineAvx512(const float* a, const float* b, size_t n) noexcept {
  __m512 dot0 = _mm512_setzero_ps(), dot1 = _mm512_setzero_ps();
  __m512 na0 = _mm512_setzero_ps(), na1 = _mm512_setzero_ps();
  __m512 nb0 = _mm512_setzero_ps(), nb1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 va0 = _mm512_loadu_ps(a + i), vb0 = _mm512_loadu_ps(b + i);
    const __m512 va1 = _mm512_loadu_ps(a + i + 16), vb1 = _mm512_loadu_ps(b + i + 16);
    dot0 = _mm512_fmadd_ps(va0, vb0, dot0);
    na0 = _mm512_fmadd_ps(va0, va0, na0);
    nb0 = _mm512_fmadd_ps(vb0, vb0, nb0);
    dot1 = _mm512_fmadd_ps(va1, vb1, dot1);
    na1 = _mm512_fmadd_ps(va1, va1, na1);
    nb1 = _mm512_fmadd_ps(vb1, vb1, nb1);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 va = _mm512_loadu_ps(a + i), vb = _mm512_loadu_ps(b + i);
    dot0 = _mm512_fmadd_ps(va, vb, dot0);
    na0 = _mm512_fmadd_ps(va, va, na0);
    nb0 = _mm512_fmadd_ps(vb, vb, nb0);
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 va = _mm512_maskz_loadu_ps(m, a + i);
    const __m512 vb = _mm512_maskz_loadu_ps(m, b + i);
    dot1 = _mm512_fmadd_ps(va, vb, dot1);
    na1 = _mm512_fmadd_ps(va, va, na1);
    nb1 = _mm512_fmadd_ps(vb, vb, nb1);
  }
  return FinishCosine(ReduceAdd16(_mm512_add_ps(dot0, dot1)),
                      ReduceAdd16(_mm512_add_ps(na0, na1)),
                      ReduceAdd16(_mm512_add_ps(nb0, nb1)));
}

}  // namespace

const KernelTable& Avx512Kernels() noexcept {
  static constexpr KernelTable table = {
      SimdTier::kAvx512,
      &L2SqAvx512,
      &IpAvx512,
      &CosineAvx512,
      &GatherImpl<&L2SqAvx512>,
      &GatherImpl<&IpAvx512>,
      &GatherImpl<&CosineAvx512>,
      &RowsImpl<&L2SqAvx512>,
      &RowsImpl<&IpAvx512>,
      &RowsImpl<&CosineAvx512>,
  };
  return table;
}

}  // namespace dhnsw::detail

#endif  // DHNSW_HAVE_AVX512
