#include "serialize/cluster_blob.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>

#include "common/aligned_buffer.h"
#include "common/crc32.h"
#include "common/rng.h"

namespace dhnsw {
namespace {

Cluster MakeCluster(uint32_t partition_id, uint32_t count, uint32_t dim, uint64_t seed) {
  Xoshiro256 rng(seed);
  HnswIndex index(dim, {.M = 6, .ef_construction = 40, .seed = seed});
  std::vector<uint32_t> gids;
  std::vector<float> v(dim);
  for (uint32_t i = 0; i < count; ++i) {
    for (auto& x : v) x = rng.NextFloat() * 10.0f;
    index.Add(v);
    gids.push_back(1000 + i * 3);  // arbitrary non-dense global ids
  }
  return Cluster(partition_id, std::move(index), std::move(gids));
}

TEST(ClusterBlobTest, RoundTripPreservesEverything) {
  const Cluster original = MakeCluster(7, 120, 12, 42);
  const std::vector<uint8_t> blob = EncodeCluster(original);

  auto decoded = DecodeCluster(blob, HnswOptions{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Cluster& c = decoded.value();

  EXPECT_EQ(c.partition_id, 7u);
  EXPECT_EQ(c.global_ids, original.global_ids);
  ASSERT_EQ(c.index.size(), original.index.size());
  EXPECT_EQ(c.index.dim(), original.index.dim());
  EXPECT_EQ(c.index.entry_point(), original.index.entry_point());
  EXPECT_EQ(c.index.max_level_in_graph(), original.index.max_level_in_graph());

  for (uint32_t id = 0; id < c.index.size(); ++id) {
    ASSERT_EQ(c.index.level(id), original.index.level(id));
    for (uint32_t layer = 0; layer <= c.index.level(id); ++layer) {
      const auto a = c.index.neighbors(id, layer);
      const auto b = original.index.neighbors(id, layer);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
    const auto va = c.index.vector(id);
    const auto vb = original.index.vector(id);
    for (uint32_t d = 0; d < c.index.dim(); ++d) ASSERT_FLOAT_EQ(va[d], vb[d]);
  }
}

TEST(ClusterBlobTest, DecodedIndexSearchesIdentically) {
  const Cluster original = MakeCluster(0, 200, 8, 43);
  const std::vector<uint8_t> blob = EncodeCluster(original);
  auto decoded = DecodeCluster(blob, HnswOptions{});
  ASSERT_TRUE(decoded.ok());

  Xoshiro256 rng(44);
  std::vector<float> q(8);
  for (int t = 0; t < 10; ++t) {
    for (auto& x : q) x = rng.NextFloat() * 10.0f;
    const auto r1 = original.index.Search(q, 5, 30);
    const auto r2 = decoded.value().index.Search(q, 5, 30);
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i].id, r2[i].id);
  }
}

TEST(ClusterBlobTest, EncodedSizeMatchesActual) {
  for (uint32_t count : {1u, 10u, 100u}) {
    const Cluster c = MakeCluster(1, count, 6, count);
    EXPECT_EQ(EncodedClusterSize(c), EncodeCluster(c).size()) << "count " << count;
  }
}

TEST(ClusterBlobTest, PeekHeaderWithoutFullDecode) {
  const Cluster c = MakeCluster(9, 50, 4, 45);
  const std::vector<uint8_t> blob = EncodeCluster(c);
  auto header = PeekClusterHeader(blob);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().partition_id, 9u);
  EXPECT_EQ(header.value().count, 50u);
  EXPECT_EQ(header.value().dim, 4u);
  EXPECT_EQ(header.value().payload_size + ClusterHeader::kEncodedSize, blob.size());
}

TEST(ClusterBlobTest, TrailingBytesAreIgnored) {
  const Cluster c = MakeCluster(2, 30, 4, 46);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob.resize(blob.size() + 1024, 0xCC);  // e.g. overflow area read along
  auto decoded = DecodeCluster(blob, HnswOptions{});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().index.size(), 30u);
}

TEST(ClusterBlobTest, CorruptPayloadDetectedByCrc) {
  const Cluster c = MakeCluster(3, 40, 4, 47);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob[ClusterHeader::kEncodedSize + 10] ^= 0xFF;
  EXPECT_EQ(DecodeCluster(blob, HnswOptions{}).status().code(), StatusCode::kCorruption);
}

TEST(ClusterBlobTest, BadMagicRejected) {
  const Cluster c = MakeCluster(3, 10, 4, 48);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob[0] ^= 0x01;
  EXPECT_EQ(DecodeCluster(blob, HnswOptions{}).status().code(), StatusCode::kCorruption);
}

TEST(ClusterBlobTest, TruncatedBlobRejected) {
  const Cluster c = MakeCluster(3, 10, 4, 49);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(DecodeCluster(blob, HnswOptions{}).ok());
}

TEST(ClusterBlobTest, TinyBufferRejected) {
  std::vector<uint8_t> blob(10, 0);
  EXPECT_FALSE(DecodeCluster(blob, HnswOptions{}).ok());
  EXPECT_FALSE(PeekClusterHeader(blob).ok());
}

TEST(ClusterBlobTest, SingleVectorCluster) {
  const Cluster c = MakeCluster(5, 1, 16, 50);
  auto decoded = DecodeCluster(EncodeCluster(c), HnswOptions{});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().index.size(), 1u);
  const auto top = decoded.value().index.Search(decoded.value().index.vector(0), 1, 4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 0u);
}

TEST(ClusterBlobTest, PreservesMOption) {
  Xoshiro256 rng(51);
  HnswIndex index(4, {.M = 24, .ef_construction = 40});
  std::vector<float> v(4);
  for (int i = 0; i < 20; ++i) {
    for (auto& x : v) x = rng.NextFloat();
    index.Add(v);
  }
  Cluster c(0, std::move(index), std::vector<uint32_t>(20, 0));
  for (uint32_t i = 0; i < 20; ++i) c.global_ids[i] = i;
  auto decoded = DecodeCluster(EncodeCluster(c), HnswOptions{});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().index.options().M, 24u);
}

// --- ClusterView: in-place parse + search -----------------------------------

Cluster MakeMetricCluster(uint32_t count, uint32_t dim, uint32_t m, Metric metric,
                          uint64_t seed) {
  Xoshiro256 rng(seed);
  HnswIndex index(dim, {.M = m, .ef_construction = 40, .metric = metric, .seed = seed});
  std::vector<uint32_t> gids;
  std::vector<float> v(dim);
  for (uint32_t i = 0; i < count; ++i) {
    for (auto& x : v) x = rng.NextFloat() * 2.0f - 1.0f;
    index.Add(v);
    gids.push_back(5000 + i * 7);
  }
  return Cluster(4, std::move(index), std::move(gids));
}

/// A blob copied into a 64-aligned buffer at `offset`, as a fetch lands it.
struct Fetched {
  AlignedBuffer buffer;
  std::span<const uint8_t> blob;
};
Fetched Fetch(const std::vector<uint8_t>& blob, size_t offset = 0) {
  Fetched f{AlignedBuffer(offset + blob.size(), 64), {}};
  std::memcpy(f.buffer.data() + offset, blob.data(), blob.size());
  f.blob = std::as_const(f.buffer).span().subspan(offset, blob.size());
  return f;
}

std::vector<std::vector<float>> RandomQueries(uint32_t dim, int n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<float>> qs(n, std::vector<float>(dim));
  for (auto& q : qs) {
    for (auto& x : q) x = rng.NextFloat() * 2.0f - 1.0f;
  }
  return qs;
}

/// Ids equal and distances equal bit for bit.
void ExpectBitIdentical(const std::vector<Scored>& a, const std::vector<Scored>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(a[i].distance), std::bit_cast<uint32_t>(b[i].distance))
        << what << " rank " << i;
  }
}

void ExpectViewSearchesLikeDecoded(const ClusterView& view, const Cluster& decoded,
                                   const std::string& what) {
  std::vector<Scored> got;
  for (const auto& q : RandomQueries(view.dim(), 12, 99)) {
    view.Search(q, 10, 32, &got);
    ExpectBitIdentical(got, decoded.index.Search(q, 10, 32), what);
  }
}

TEST(ClusterViewTest, SearchIsBitIdenticalToDecodedIndex) {
  for (uint32_t m : {4u, 6u, 16u}) {
    for (uint32_t dim : {4u, 12u, 128u}) {
      for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
        const std::string what = "M=" + std::to_string(m) + " dim=" + std::to_string(dim) +
                                 " metric=" + std::string(MetricName(metric));
        const Cluster original = MakeMetricCluster(150, dim, m, metric, m * 1000 + dim);
        const Fetched f = Fetch(EncodeCluster(original));
        ASSERT_TRUE(ClusterView::PayloadAligned(f.blob)) << what;
        auto view = ClusterView::Parse(f.blob, {.metric = metric, .dim = dim,
                                                .partition_id = 4u});
        ASSERT_TRUE(view.ok()) << what << ": " << view.status().ToString();
        auto decoded = DecodeCluster(f.blob, HnswOptions{.metric = metric});
        ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString();

        EXPECT_EQ(view.value().size(), original.index.size());
        EXPECT_EQ(view.value().entry_point(), original.index.entry_point());
        EXPECT_EQ(view.value().max_level(), original.index.max_level_in_graph());
        const auto gids = view.value().global_ids();
        EXPECT_TRUE(std::equal(gids.begin(), gids.end(), original.global_ids.begin(),
                               original.global_ids.end()));
        ExpectViewSearchesLikeDecoded(view.value(), decoded.value(), what);
      }
    }
  }
}

// A fetch into a 64-aligned buffer at a 4-aligned offset always lands the
// payload 4-byte aligned. At an odd offset the view refuses to read it in
// place, DecodeCluster still accepts it, and an aligned copy searches exactly
// like the decoded index.
TEST(ClusterViewTest, MisalignedFetchIsCopiedNotReadMisaligned) {
  const Cluster original = MakeMetricCluster(101, 12, 6, Metric::kL2, 7);
  const Fetched f = Fetch(EncodeCluster(original), 1);
  ASSERT_FALSE(ClusterView::PayloadAligned(f.blob));
  EXPECT_EQ(ClusterView::Parse(f.blob, {}).status().code(), StatusCode::kInvalidArgument);

  auto decoded = DecodeCluster(f.blob, HnswOptions{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  AlignedBuffer storage;
  const std::span<const uint8_t> copy = ClusterView::CopyAligned(f.blob, &storage);
  ASSERT_TRUE(ClusterView::PayloadAligned(copy));
  auto view = ClusterView::Parse(copy, {.metric = Metric::kL2, .dim = 12u});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ExpectViewSearchesLikeDecoded(view.value(), decoded.value(), "aligned copy");
}

// A blob as a PQ deployment wrote it: flags bit 3 set, and the header's last
// word giving the size of the framed extension sections between the header
// and the payload. The section and the payload are CRC-valid and the payload
// stays 4-byte aligned, so only the format's refusal stops it.
TEST(ClusterViewTest, BlobWithExtensionSectionsIsCorruption) {
  constexpr size_t kFlagsOffset = 6;
  constexpr size_t kReservedOffset = 44;
  const std::vector<uint8_t> plain =
      EncodeCluster(MakeMetricCluster(60, 8, 6, Metric::kL2, 9));
  auto put_u32 = [](std::vector<uint8_t>* out, uint32_t v) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(&v);
    out->insert(out->end(), bytes, bytes + sizeof v);
  };
  // One section: kind u16, version u16, body_size u32, body, CRC-32C(body).
  // The parent's reader checked only this framing, not the body.
  const std::vector<uint8_t> body = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> section;
  put_u32(&section, 1u | (1u << 16));  // kind 1 (PQ codes), version 1
  put_u32(&section, static_cast<uint32_t>(body.size()));
  section.insert(section.end(), body.begin(), body.end());
  put_u32(&section, Crc32c(body));

  auto mark = [&](std::vector<uint8_t> blob, bool flag, uint32_t ext_size) {
    if (flag) blob[kFlagsOffset] |= 0x8;
    std::memcpy(blob.data() + kReservedOffset, &ext_size, 4);
    return blob;
  };
  std::vector<uint8_t> pq = mark(plain, true, static_cast<uint32_t>(section.size()));
  pq.insert(pq.begin() + ClusterHeader::kEncodedSize, section.begin(), section.end());

  const ClusterExpect expect{.metric = Metric::kL2, .dim = 8u, .partition_id = 4u};
  for (const auto& [blob, what] :
       {std::pair{pq, "flag + sections"},
        std::pair{mark(plain, true, 0), "flag alone"},
        std::pair{mark(plain, false, 20), "size word alone"}}) {
    const Fetched f = Fetch(blob);
    ASSERT_TRUE(ClusterView::PayloadAligned(f.blob)) << what;
    EXPECT_EQ(ClusterView::Parse(f.blob, expect).status().code(), StatusCode::kCorruption)
        << what;
    EXPECT_EQ(DecodeCluster(f.blob, HnswOptions{}).status().code(), StatusCode::kCorruption)
        << what;
  }
}

TEST(ClusterViewTest, RejectsHeaderThatDisagreesWithExpectations) {
  const Fetched f = Fetch(EncodeCluster(MakeMetricCluster(40, 8, 6, Metric::kL2, 3)));
  EXPECT_TRUE(ClusterView::Parse(f.blob, {.metric = Metric::kL2, .dim = 8u,
                                          .partition_id = 4u}).ok());
  EXPECT_EQ(ClusterView::Parse(f.blob, {.metric = Metric::kInnerProduct}).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ClusterView::Parse(f.blob, {.dim = 9u}).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ClusterView::Parse(f.blob, {.partition_id = 5u}).status().code(),
            StatusCode::kCorruption);
  // The two-argument DecodeCluster checks the template's metric.
  EXPECT_EQ(DecodeCluster(f.blob, HnswOptions{.metric = Metric::kCosine}).status().code(),
            StatusCode::kCorruption);
}

TEST(ClusterViewTest, EmptyClusterParsesAndSearchesToNothing) {
  const Cluster empty(2, HnswIndex(8, {}), {});
  const Fetched f = Fetch(EncodeCluster(empty));
  auto view = ClusterView::Parse(f.blob, {.dim = 8u});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().size(), 0u);
  std::vector<Scored> out(3);
  view.value().Search(std::vector<float>(8, 0.0f), 5, 16, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(DecodeCluster(f.blob, HnswOptions{}).ok());
}

// Every single-bit flip in the 48-byte header (which the payload CRC does not
// cover) is either rejected as corruption or leaves the results on a fixed
// query set bit-identical: only flips that raise M pass. One gap remains,
// recorded in DESIGN.md §7: when several nodes share the top level, an entry
// point moved onto another of them is a valid graph, and nothing in the
// format can tell. Such flips must land exactly there; their results may
// differ. Full header coverage needs a format version bump.
TEST(ClusterViewTest, EveryHeaderBitFlipIsRejectedOrHarmless) {
  const Cluster original = MakeMetricCluster(120, 12, 6, Metric::kL2, 42);
  const std::vector<uint8_t> clean = EncodeCluster(original);
  const ClusterExpect expect{.metric = Metric::kL2, .dim = 12u, .partition_id = 4u};
  const auto queries = RandomQueries(12, 8, 5);
  std::vector<std::vector<Scored>> baseline;
  for (const auto& q : queries) baseline.push_back(original.index.Search(q, 10, 32));
  const uint32_t top = static_cast<uint32_t>(original.index.max_level_in_graph());
  constexpr size_t kMBits[2] = {20 * 8, 24 * 8};
  constexpr size_t kEntryPointBits[2] = {24 * 8, 28 * 8};

  int rejected = 0;
  for (size_t bit = 0; bit < ClusterHeader::kEncodedSize * 8; ++bit) {
    std::vector<uint8_t> blob = clean;
    blob[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const std::string what = "header bit " + std::to_string(bit);
    const bool entry_flip = bit >= kEntryPointBits[0] && bit < kEntryPointBits[1];
    const Fetched f = Fetch(blob);

    // As a compute node loads it: parsed in place and cross-checked.
    auto view = ClusterView::Parse(f.blob, expect);
    if (!view.ok()) {
      EXPECT_EQ(view.status().code(), StatusCode::kCorruption) << what;
      ++rejected;
    } else if (entry_flip) {
      EXPECT_EQ(original.index.level(view.value().entry_point()), top) << what;
    } else {
      EXPECT_TRUE(bit >= kMBits[0] && bit < kMBits[1]) << what << " passed";
      std::vector<Scored> got;
      for (size_t i = 0; i < queries.size(); ++i) {
        view.value().Search(queries[i], 10, 32, &got);
        ExpectBitIdentical(got, baseline[i], what);
      }
    }
    // Decoded, knowing only the metric (the two-argument form).
    auto decoded = DecodeCluster(f.blob, HnswOptions{});
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << what;
    } else if (entry_flip) {
      EXPECT_EQ(decoded.value().index.level(decoded.value().index.entry_point()), top)
          << what;
    } else {
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectBitIdentical(decoded.value().index.Search(queries[i], 10, 32), baseline[i],
                           what + " (decoded)");
      }
    }
  }
  EXPECT_GT(rejected, 300);
}

/// Rewrites the header's payload CRC after a payload edit.
void RecomputePayloadCrc(std::vector<uint8_t>* blob) {
  const auto payload = std::span<const uint8_t>(*blob).subspan(ClusterHeader::kEncodedSize);
  const uint32_t crc = Crc32c(payload);
  std::memcpy(blob->data() + 40, &crc, sizeof crc);
}

// A CRC-valid payload whose lengths lie: every level is bounded by the
// header's max level (a level of 0xFFFFFFFF once wrapped the per-node layer
// count to zero and read through a null page).
TEST(ClusterViewTest, HugeLevelBehindAValidCrcIsCorruption) {
  const Cluster original = MakeMetricCluster(50, 6, 6, Metric::kL2, 11);
  std::vector<uint8_t> blob = EncodeCluster(original);
  const uint32_t huge = 0xFFFFFFFFu;
  // levels[3] sits after the 50 global ids.
  std::memcpy(blob.data() + ClusterHeader::kEncodedSize + 4 * (50 + 3), &huge, 4);
  RecomputePayloadCrc(&blob);
  EXPECT_EQ(DecodeCluster(blob, HnswOptions{}).status().code(), StatusCode::kCorruption);
  const Fetched f = Fetch(blob);
  EXPECT_EQ(ClusterView::Parse(f.blob, {}).status().code(), StatusCode::kCorruption);

  // Raising the header max level to match does not help: the layers would
  // not fit in the payload.
  std::memcpy(blob.data() + 28, &huge, 4);
  EXPECT_EQ(DecodeCluster(blob, HnswOptions{}).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace dhnsw
