// AVX2+FMA kernel tier. This translation unit is compiled with
// -mavx2 -mfma (see src/index/CMakeLists.txt); nothing here may be called
// unless cpuid reported AVX2+FMA — the dispatcher in distance.cpp checks.
//
// Accumulation: 4 independent 8-lane accumulators in the main loop (breaking
// the FMA latency chain), reduced pairwise — balanced partial sums that stay
// within the 4-ULP parity budget against the 8-stripe scalar reference.
#if defined(DHNSW_HAVE_AVX2)

#include <immintrin.h>

#include "index/distance_kernels.h"

namespace dhnsw::detail {
namespace {

/// Pairwise-tree horizontal sum: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)),
/// matching the scalar reference's stripe-reduction order.
inline float ReduceAdd8(__m256 v) noexcept {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 lo2 = _mm_hadd_ps(lo, lo);   // (0+1, 2+3, ..)
  const __m128 lo1 = _mm_hadd_ps(lo2, lo2); // ((0+1)+(2+3), ..)
  const __m128 hi2 = _mm_hadd_ps(hi, hi);
  const __m128 hi1 = _mm_hadd_ps(hi2, hi2);
  return _mm_cvtss_f32(_mm_add_ss(lo1, hi1));
}

float L2SqAvx2(const float* a, const float* b, size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    const __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 16), _mm256_loadu_ps(b + i + 16));
    const __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 24), _mm256_loadu_ps(b + i + 24));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    acc2 = _mm256_fmadd_ps(d2, d2, acc2);
    acc3 = _mm256_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float sum = ReduceAdd8(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                       _mm256_add_ps(acc2, acc3)));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float IpAvx2(const float* a, const float* b, size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16), _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24), _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float sum = ReduceAdd8(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                       _mm256_add_ps(acc2, acc3)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return -sum;
}

float CosineAvx2(const float* a, const float* b, size_t n) noexcept {
  __m256 dot0 = _mm256_setzero_ps(), dot1 = _mm256_setzero_ps();
  __m256 na0 = _mm256_setzero_ps(), na1 = _mm256_setzero_ps();
  __m256 nb0 = _mm256_setzero_ps(), nb1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 va0 = _mm256_loadu_ps(a + i), vb0 = _mm256_loadu_ps(b + i);
    const __m256 va1 = _mm256_loadu_ps(a + i + 8), vb1 = _mm256_loadu_ps(b + i + 8);
    dot0 = _mm256_fmadd_ps(va0, vb0, dot0);
    na0 = _mm256_fmadd_ps(va0, va0, na0);
    nb0 = _mm256_fmadd_ps(vb0, vb0, nb0);
    dot1 = _mm256_fmadd_ps(va1, vb1, dot1);
    na1 = _mm256_fmadd_ps(va1, va1, na1);
    nb1 = _mm256_fmadd_ps(vb1, vb1, nb1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i), vb = _mm256_loadu_ps(b + i);
    dot0 = _mm256_fmadd_ps(va, vb, dot0);
    na0 = _mm256_fmadd_ps(va, va, na0);
    nb0 = _mm256_fmadd_ps(vb, vb, nb0);
  }
  float dot = ReduceAdd8(_mm256_add_ps(dot0, dot1));
  float na = ReduceAdd8(_mm256_add_ps(na0, na1));
  float nb = ReduceAdd8(_mm256_add_ps(nb0, nb1));
  for (; i < n; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  return FinishCosine(dot, na, nb);
}

// --- Tile kernels: up to kTileQueries queries against contiguous rows. ---
// Each (query, row) pair keeps exactly its pair kernel's stripes, loop
// order, reduction and scalar tail, so every output is bit-identical to that
// kernel's. With 16 ymm registers a row is scored against two queries at a
// time (8 accumulators), so a row chunk is loaded twice for four queries
// instead of four times.

/// One 8-lane step of L2SqAvx2 (kL2) or IpAvx2: acc += (a-b)^2 or a*b.
template <bool kL2>
inline __m256 DotLikeStep(__m256 a, __m256 b, __m256 acc) noexcept {
  if constexpr (kL2) {
    const __m256 d = _mm256_sub_ps(a, b);
    return _mm256_fmadd_ps(d, d, acc);
  } else {
    return _mm256_fmadd_ps(a, b, acc);
  }
}

/// NQ (1 or 2) queries against one row, stride `stride` between queries'
/// outputs: the four 32-float stripes, the 8-float loop into stripe 0, the
/// reduction and the sequential scalar tail of L2SqAvx2 / IpAvx2.
template <bool kL2, size_t NQ>
inline void DotLikeRow(const float* const* q, const float* b, size_t n, float* out,
                       size_t stride) noexcept {
  __m256 acc[NQ][4];
  for (size_t t = 0; t < NQ; ++t) {
    for (size_t s = 0; s < 4; ++s) acc[t][s] = _mm256_setzero_ps();
  }
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (size_t s = 0; s < 4; ++s) {
      const __m256 vb = _mm256_loadu_ps(b + i + 8 * s);
      for (size_t t = 0; t < NQ; ++t) {
        acc[t][s] = DotLikeStep<kL2>(_mm256_loadu_ps(q[t] + i + 8 * s), vb, acc[t][s]);
      }
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 vb = _mm256_loadu_ps(b + i);
    for (size_t t = 0; t < NQ; ++t) {
      acc[t][0] = DotLikeStep<kL2>(_mm256_loadu_ps(q[t] + i), vb, acc[t][0]);
    }
  }
  for (size_t t = 0; t < NQ; ++t) {
    float sum = ReduceAdd8(_mm256_add_ps(_mm256_add_ps(acc[t][0], acc[t][1]),
                                         _mm256_add_ps(acc[t][2], acc[t][3])));
    for (size_t r = i; r < n; ++r) {
      if constexpr (kL2) {
        const float d = q[t][r] - b[r];
        sum += d * d;
      } else {
        sum += q[t][r] * b[r];
      }
    }
    out[t * stride] = kL2 ? sum : -sum;
  }
}

template <bool kL2>
void DotLikeTile(const float* const* queries, size_t nq, const float* rows, size_t dim,
                 size_t n, float* out) noexcept {
  for (size_t j = 0; j < n; ++j) {
    const float* row = rows + j * dim;
    size_t t = 0;
    for (; t + 2 <= nq; t += 2) DotLikeRow<kL2, 2>(queries + t, row, dim, out + t * n + j, n);
    if (t < nq) DotLikeRow<kL2, 1>(queries + t, row, dim, out + t * n + j, n);
  }
}

/// NQ cosine dot products against one row: CosineAvx2's `dot` stripes
/// (16-float loop into stripes 0/1, 8-float loop into 0), reduction and
/// scalar tail. The norms run the same steps with b == a, so they come from
/// here too.
template <size_t NQ>
inline void CosineDotRow(const float* const* q, const float* b, size_t n,
                         float* dots) noexcept {
  __m256 dot[NQ][2];
  for (size_t t = 0; t < NQ; ++t) dot[t][0] = dot[t][1] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 vb0 = _mm256_loadu_ps(b + i), vb1 = _mm256_loadu_ps(b + i + 8);
    for (size_t t = 0; t < NQ; ++t) {
      dot[t][0] = _mm256_fmadd_ps(_mm256_loadu_ps(q[t] + i), vb0, dot[t][0]);
      dot[t][1] = _mm256_fmadd_ps(_mm256_loadu_ps(q[t] + i + 8), vb1, dot[t][1]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 vb = _mm256_loadu_ps(b + i);
    for (size_t t = 0; t < NQ; ++t) {
      dot[t][0] = _mm256_fmadd_ps(_mm256_loadu_ps(q[t] + i), vb, dot[t][0]);
    }
  }
  for (size_t t = 0; t < NQ; ++t) {
    float sum = ReduceAdd8(_mm256_add_ps(dot[t][0], dot[t][1]));
    for (size_t r = i; r < n; ++r) sum += q[t][r] * b[r];
    dots[t] = sum;
  }
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

const KernelTable& Avx2Kernels() noexcept {
  static constexpr KernelTable table = {
      SimdTier::kAvx2,
      &L2SqAvx2,
      &IpAvx2,
      &CosineAvx2,
      &GatherImpl<&L2SqAvx2>,
      &GatherImpl<&IpAvx2>,
      &GatherImpl<&CosineAvx2>,
      &RowsImpl<&L2SqAvx2>,
      &RowsImpl<&IpAvx2>,
      &RowsImpl<&CosineAvx2>,
      &DotLikeTile<true>,
      &DotLikeTile<false>,
      &CosineTile,
  };
  return table;
}

}  // namespace dhnsw::detail

#endif  // DHNSW_HAVE_AVX2
