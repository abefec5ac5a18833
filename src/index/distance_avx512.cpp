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

// --- Tile kernels: up to kTileQueries queries against contiguous rows. ---
// Each (query, row) pair keeps exactly its pair kernel's stripes, loop
// order and reduction, so every output is bit-identical to that kernel's;
// what the tile adds is that a row chunk is loaded once for all queries.

/// One 16-lane step of L2SqAvx512 (kL2) or IpAvx512: acc += (a-b)^2 or a*b.
template <bool kL2>
inline __m512 DotLikeStep(__m512 a, __m512 b, __m512 acc) noexcept {
  if constexpr (kL2) {
    const __m512 d = _mm512_sub_ps(a, b);
    return _mm512_fmadd_ps(d, d, acc);
  } else {
    return _mm512_fmadd_ps(a, b, acc);
  }
}

/// NQ queries against one row, stride `stride` between queries' outputs:
/// the four 64-float stripes, the 16-float loop into stripe 0 and the
/// masked tail into stripe 1 of L2SqAvx512 / IpAvx512.
template <bool kL2, size_t NQ>
inline void DotLikeRow(const float* const* q, const float* b, size_t n, float* out,
                       size_t stride) noexcept {
  __m512 acc[NQ][4];
  for (size_t t = 0; t < NQ; ++t) {
    for (size_t s = 0; s < 4; ++s) acc[t][s] = _mm512_setzero_ps();
  }
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (size_t s = 0; s < 4; ++s) {
      const __m512 vb = _mm512_loadu_ps(b + i + 16 * s);
      for (size_t t = 0; t < NQ; ++t) {
        acc[t][s] = DotLikeStep<kL2>(_mm512_loadu_ps(q[t] + i + 16 * s), vb, acc[t][s]);
      }
    }
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 vb = _mm512_loadu_ps(b + i);
    for (size_t t = 0; t < NQ; ++t) {
      acc[t][0] = DotLikeStep<kL2>(_mm512_loadu_ps(q[t] + i), vb, acc[t][0]);
    }
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 vb = _mm512_maskz_loadu_ps(m, b + i);
    for (size_t t = 0; t < NQ; ++t) {
      acc[t][1] = DotLikeStep<kL2>(_mm512_maskz_loadu_ps(m, q[t] + i), vb, acc[t][1]);
    }
  }
  for (size_t t = 0; t < NQ; ++t) {
    const float sum = ReduceAdd16(_mm512_add_ps(_mm512_add_ps(acc[t][0], acc[t][1]),
                                                 _mm512_add_ps(acc[t][2], acc[t][3])));
    out[t * stride] = kL2 ? sum : -sum;
  }
}

template <bool kL2, size_t NQ>
void DotLikeRows(const float* const* q, const float* rows, size_t dim, size_t n,
                 float* out) noexcept {
  for (size_t j = 0; j < n; ++j) DotLikeRow<kL2, NQ>(q, rows + j * dim, dim, out + j, n);
}

template <bool kL2>
void DotLikeTile(const float* const* queries, size_t nq, const float* rows, size_t dim,
                 size_t n, float* out) noexcept {
  switch (nq) {
    case 1: return DotLikeRows<kL2, 1>(queries, rows, dim, n, out);
    case 2: return DotLikeRows<kL2, 2>(queries, rows, dim, n, out);
    case 3: return DotLikeRows<kL2, 3>(queries, rows, dim, n, out);
    default: return DotLikeRows<kL2, 4>(queries, rows, dim, n, out);
  }
}

/// NQ cosine dot products against one row: CosineAvx512's `dot` stripes
/// (32-float loop into stripes 0/1, 16-float loop into 0, masked tail into
/// 1). The norms run the same stripes with b == a, so they come from here
/// too.
template <size_t NQ>
inline void CosineDotRow(const float* const* q, const float* b, size_t n,
                         float* dots) noexcept {
  __m512 dot[NQ][2];
  for (size_t t = 0; t < NQ; ++t) dot[t][0] = dot[t][1] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 vb0 = _mm512_loadu_ps(b + i), vb1 = _mm512_loadu_ps(b + i + 16);
    for (size_t t = 0; t < NQ; ++t) {
      dot[t][0] = _mm512_fmadd_ps(_mm512_loadu_ps(q[t] + i), vb0, dot[t][0]);
      dot[t][1] = _mm512_fmadd_ps(_mm512_loadu_ps(q[t] + i + 16), vb1, dot[t][1]);
    }
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 vb = _mm512_loadu_ps(b + i);
    for (size_t t = 0; t < NQ; ++t) {
      dot[t][0] = _mm512_fmadd_ps(_mm512_loadu_ps(q[t] + i), vb, dot[t][0]);
    }
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 vb = _mm512_maskz_loadu_ps(m, b + i);
    for (size_t t = 0; t < NQ; ++t) {
      dot[t][1] = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, q[t] + i), vb, dot[t][1]);
    }
  }
  for (size_t t = 0; t < NQ; ++t) dots[t] = ReduceAdd16(_mm512_add_ps(dot[t][0], dot[t][1]));
}

template <size_t NQ>
void CosineRows(const float* const* q, const float* rows, size_t dim, size_t n,
                float* out) noexcept {
  float na[NQ];
  for (size_t t = 0; t < NQ; ++t) CosineDotRow<1>(&q[t], q[t], dim, &na[t]);
  for (size_t j = 0; j < n; ++j) {
    const float* row = rows + j * dim;
    float nb, dots[NQ];
    CosineDotRow<1>(&row, row, dim, &nb);
    CosineDotRow<NQ>(q, row, dim, dots);
    for (size_t t = 0; t < NQ; ++t) out[t * n + j] = FinishCosine(dots[t], na[t], nb);
  }
}

void CosineTile(const float* const* queries, size_t nq, const float* rows, size_t dim,
                size_t n, float* out) noexcept {
  switch (nq) {
    case 1: return CosineRows<1>(queries, rows, dim, n, out);
    case 2: return CosineRows<2>(queries, rows, dim, n, out);
    case 3: return CosineRows<3>(queries, rows, dim, n, out);
    default: return CosineRows<4>(queries, rows, dim, n, out);
  }
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
      &DotLikeTile<true>,
      &DotLikeTile<false>,
      &CosineTile,
  };
  return table;
}

}  // namespace dhnsw::detail

#endif  // DHNSW_HAVE_AVX512
