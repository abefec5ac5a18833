// Cross-tier numerical parity for the SIMD distance kernels.
//
// Contract under test (index/distance.h):
//  - every tier in AvailableTiers() matches the scalar reference within
//    4 ULPs, for every metric, across dims covering sub-vector tails,
//    exact vector widths, unroll boundaries, and the paper's 128/960;
//  - the gather, rows and tile batched kernels are bit-identical to the
//    same tier's pairwise kernel applied per element;
//  - the cosine zero-vector convention (distance exactly 1.0f) holds in
//    every tier, including the batched forms.
//
// CI runs this binary twice: natively dispatched and with
// DHNSW_FORCE_SCALAR=1 (where it degenerates to scalar-vs-scalar, proving
// the harness itself is sound).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/distance.h"

namespace dhnsw {
namespace {

constexpr int32_t kUlpBudget = 4;
constexpr size_t kDims[] = {1, 3, 4, 7, 8, 31, 32, 100, 128, 960};
constexpr Metric kMetrics[] = {Metric::kL2, Metric::kInnerProduct, Metric::kCosine};

std::vector<float> RandomVector(size_t dim, Xoshiro256& rng) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  return v;
}

/// Strictly positive entries: keeps every partial sum cancellation-free, so
/// ULP distance between accumulation orders is meaningful (a signed dot
/// product summing to ~0 can differ by many ULPs between *correct* kernels
/// purely from reassociation — that case is covered by the magnitude-relative
/// test below instead).
std::vector<float> PositiveVector(size_t dim, Xoshiro256& rng) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.NextDouble() * 0.9 + 0.1);
  return v;
}

std::string Context(SimdTier tier, Metric metric, size_t dim) {
  return std::string(SimdTierName(tier)) + "/" + std::string(MetricName(metric)) +
         "/dim=" + std::to_string(dim);
}

TEST(KernelParityTest, EveryTierWithinUlpBudgetOfScalar) {
  // ULP distance is only meaningful on cancellation-free results, and each
  // metric cancels on different data:
  //  - inner product: signed entries make the dot sum through ~0, so it gets
  //    strictly positive data (all terms one sign);
  //  - cosine: positive data is highly correlated (similarity ~1), making the
  //    final `1 - dot/denom` cancel, so it gets signed data (distance ~1);
  //  - L2 accumulates squares — cancellation-free either way.
  // The signed-data inner product case is covered by the magnitude-relative
  // test below.
  const KernelTable& scalar = KernelsForTier(SimdTier::kScalar);
  Xoshiro256 rng(0x9a17e5u);
  for (size_t dim : kDims) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<float> sa = RandomVector(dim, rng);
      const std::vector<float> sb = RandomVector(dim, rng);
      const std::vector<float> pa = PositiveVector(dim, rng);
      const std::vector<float> pb = PositiveVector(dim, rng);
      for (Metric metric : kMetrics) {
        const float* a = metric == Metric::kInnerProduct ? pa.data() : sa.data();
        const float* b = metric == Metric::kInnerProduct ? pb.data() : sb.data();
        const float ref = scalar.Pair(metric)(a, b, dim);
        for (SimdTier tier : AvailableTiers()) {
          const float got = KernelsForTier(tier).Pair(metric)(a, b, dim);
          EXPECT_LE(UlpDiff(ref, got), kUlpBudget)
              << Context(tier, metric, dim) << " ref=" << ref << " got=" << got;
        }
      }
    }
  }
}

TEST(KernelParityTest, SignedDataStaysWithinMagnitudeRelativeTolerance) {
  // With signed entries a dot product can cancel to ~0, so the error of any
  // summation order must be judged against the magnitude of the terms, not
  // the (tiny) result. Budget: 16 eps of the sum of |term|s.
  const KernelTable& scalar = KernelsForTier(SimdTier::kScalar);
  Xoshiro256 rng(0x9051u);
  for (size_t dim : kDims) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<float> a = RandomVector(dim, rng);
      const std::vector<float> b = RandomVector(dim, rng);
      double magnitude = 1.0;
      for (size_t i = 0; i < dim; ++i) {
        magnitude += std::abs(static_cast<double>(a[i]) * b[i]);
      }
      const double budget = 16.0 * 1.1920929e-7 * magnitude;  // 16 eps
      for (Metric metric : kMetrics) {
        const float ref = scalar.Pair(metric)(a.data(), b.data(), dim);
        for (SimdTier tier : AvailableTiers()) {
          const float got = KernelsForTier(tier).Pair(metric)(a.data(), b.data(), dim);
          EXPECT_LE(std::abs(static_cast<double>(ref) - got), budget)
              << Context(tier, metric, dim) << " ref=" << ref << " got=" << got;
        }
      }
    }
  }
}

TEST(KernelParityTest, GatherIsBitIdenticalToPairWithinTier) {
  Xoshiro256 rng(0x6a7be5u);
  constexpr size_t kRows = 200;
  for (size_t dim : kDims) {
    const std::vector<float> query = RandomVector(dim, rng);
    const std::vector<float> base = RandomVector(kRows * dim, rng);
    std::vector<uint32_t> ids;
    for (int i = 0; i < 40; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.NextBounded(kRows)));
    }
    std::vector<float> out(ids.size());
    for (SimdTier tier : AvailableTiers()) {
      const KernelTable& table = KernelsForTier(tier);
      for (Metric metric : kMetrics) {
        table.Gather(metric)(query.data(), base.data(), dim, ids.data(),
                             ids.size(), out.data());
        for (size_t j = 0; j < ids.size(); ++j) {
          const float ref = table.Pair(metric)(query.data(),
                                               base.data() + ids[j] * dim, dim);
          EXPECT_EQ(UlpDiff(ref, out[j]), 0)
              << Context(tier, metric, dim) << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelParityTest, RowsIsBitIdenticalToPairWithinTier) {
  Xoshiro256 rng(0x205a5u);
  constexpr size_t kRows = 64;
  for (size_t dim : kDims) {
    const std::vector<float> query = RandomVector(dim, rng);
    const std::vector<float> rows = RandomVector(kRows * dim, rng);
    std::vector<float> out(kRows);
    for (SimdTier tier : AvailableTiers()) {
      const KernelTable& table = KernelsForTier(tier);
      for (Metric metric : kMetrics) {
        table.Rows(metric)(query.data(), rows.data(), dim, kRows, out.data());
        for (size_t j = 0; j < kRows; ++j) {
          const float ref = table.Pair(metric)(query.data(),
                                               rows.data() + j * dim, dim);
          EXPECT_EQ(UlpDiff(ref, out[j]), 0)
              << Context(tier, metric, dim) << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelParityTest, TileIsBitIdenticalToPairWithinTier) {
  // Dims straddle every stripe width (8, 16, 32, 64 floats) and the tails;
  // row counts cover the empty tile, one row and an odd count.
  constexpr size_t kTileDims[] = {1, 7, 15, 16, 17, 63, 64, 65, 128, 129, 960};
  constexpr size_t kRowCounts[] = {0, 1, 5, 64, 65};
  Xoshiro256 rng(0x711eu);
  for (size_t dim : kTileDims) {
    std::vector<std::vector<float>> queries;
    for (size_t i = 0; i < kTileQueries; ++i) queries.push_back(RandomVector(dim, rng));
    const float* q[kTileQueries];
    for (size_t i = 0; i < kTileQueries; ++i) q[i] = queries[i].data();
    const std::vector<float> rows = RandomVector(65 * dim, rng);
    std::vector<float> out(kTileQueries * 65);
    for (SimdTier tier : AvailableTiers()) {
      const KernelTable& table = KernelsForTier(tier);
      for (Metric metric : kMetrics) {
        for (size_t nq = 1; nq <= kTileQueries; ++nq) {
          for (size_t n : kRowCounts) {
            table.Tile(metric)(q, nq, rows.data(), dim, n, out.data());
            for (size_t i = 0; i < nq; ++i) {
              for (size_t j = 0; j < n; ++j) {
                const float ref = table.Pair(metric)(q[i], rows.data() + j * dim, dim);
                EXPECT_EQ(UlpDiff(ref, out[i * n + j]), 0)
                    << Context(tier, metric, dim) << " nq=" << nq << " n=" << n
                    << " query=" << i << " row=" << j;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, CosineZeroVectorConventionHoldsInEveryTier) {
  for (size_t dim : kDims) {
    const std::vector<float> zero(dim, 0.0f);
    std::vector<float> unit(dim, 0.0f);
    unit[0] = 1.0f;
    const uint32_t ids[2] = {0, 1};
    std::vector<float> both = zero;
    both.insert(both.end(), unit.begin(), unit.end());
    float out[2];
    for (SimdTier tier : AvailableTiers()) {
      const KernelTable& t = KernelsForTier(tier);
      EXPECT_EQ(t.cosine(zero.data(), unit.data(), dim), 1.0f)
          << Context(tier, Metric::kCosine, dim);
      EXPECT_EQ(t.cosine(unit.data(), zero.data(), dim), 1.0f)
          << Context(tier, Metric::kCosine, dim);
      EXPECT_EQ(t.cosine(zero.data(), zero.data(), dim), 1.0f)
          << Context(tier, Metric::kCosine, dim);
      t.cosine_gather(zero.data(), both.data(), dim, ids, 2, out);
      EXPECT_EQ(out[0], 1.0f);
      EXPECT_EQ(out[1], 1.0f);
      t.cosine_rows(zero.data(), both.data(), dim, 2, out);
      EXPECT_EQ(out[0], 1.0f);
      EXPECT_EQ(out[1], 1.0f);
      const float* tile_queries[2] = {zero.data(), unit.data()};
      float tile_out[4];
      t.cosine_tile(tile_queries, 2, both.data(), dim, 2, tile_out);
      EXPECT_EQ(tile_out[0], 1.0f);  // zero query, zero row
      EXPECT_EQ(tile_out[1], 1.0f);  // zero query, unit row
      EXPECT_EQ(tile_out[2], 1.0f);  // unit query, zero row
    }
  }
}

TEST(KernelParityTest, DistanceBatchMatchesActivePairKernel) {
  Xoshiro256 rng(0xba7c4u);
  constexpr size_t kRows = 50;
  for (size_t dim : {size_t{7}, size_t{128}}) {
    const std::vector<float> query = RandomVector(dim, rng);
    const std::vector<float> base = RandomVector(kRows * dim, rng);
    const std::vector<uint32_t> ids = {0, 3, 49, 17, 3};  // dups allowed
    std::vector<float> out(ids.size());
    for (Metric metric : kMetrics) {
      DistanceBatch(metric, query, base.data(), dim, ids, out.data());
      for (size_t j = 0; j < ids.size(); ++j) {
        const float ref = Distance(metric, query,
                                   {base.data() + ids[j] * dim, dim});
        EXPECT_EQ(UlpDiff(ref, out[j]), 0)
            << std::string(MetricName(metric)) << " dim=" << dim << " j=" << j;
      }
    }
  }
}

TEST(KernelParityTest, ActiveTierIsListedAsAvailable) {
  bool found = false;
  for (SimdTier tier : AvailableTiers()) {
    if (tier == ActiveTier()) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(AvailableTiers().front(), SimdTier::kScalar);
  EXPECT_EQ(ActiveKernels().tier, ActiveTier());
}

TEST(UlpDiffTest, BasicProperties) {
  EXPECT_EQ(UlpDiff(1.0f, 1.0f), 0);
  EXPECT_EQ(UlpDiff(0.0f, -0.0f), 0);  // signed zeros are the same value
  EXPECT_EQ(UlpDiff(1.0f, std::nextafter(1.0f, 2.0f)), 1);
  EXPECT_EQ(UlpDiff(1.0f, std::nextafter(std::nextafter(1.0f, 2.0f), 2.0f)), 2);
  // Straddling zero still counts representable steps.
  const float tiny = std::nextafter(0.0f, 1.0f);
  EXPECT_EQ(UlpDiff(tiny, -tiny), 2);
  // Non-finite values saturate (never "close").
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(UlpDiff(1.0f, inf), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(UlpDiff(1.0f, nan), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(UlpDiff(nan, nan), 0);  // both-NaN compares equal for parity tests
  EXPECT_TRUE(UlpClose(1.0f, 1.0f, 0));
  EXPECT_FALSE(UlpClose(1.0f, 1.5f, 4));
}

}  // namespace
}  // namespace dhnsw
