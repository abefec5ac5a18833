// Robustness sweeps over the wire decoders: arbitrary corruption of bytes
// that cross the network (cluster blobs, region headers, metadata entries,
// overflow areas, snapshots) must never crash or return garbage silently —
// every mutation either round-trips to a valid object or yields an error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "core/memory_layout.h"
#include "core/meta_hnsw.h"
#include "dataset/synthetic.h"
#include "serialize/cluster_blob.h"
#include "serialize/overflow.h"

namespace dhnsw {
namespace {

Cluster MakeCluster(uint64_t seed) {
  Xoshiro256 rng(seed);
  HnswIndex index(6, {.M = 6, .ef_construction = 30, .seed = seed});
  std::vector<uint32_t> gids;
  std::vector<float> v(6);
  for (uint32_t i = 0; i < 60; ++i) {
    for (auto& x : v) x = rng.NextFloat();
    index.Add(v);
    gids.push_back(i);
  }
  return Cluster(1, std::move(index), std::move(gids));
}

/// Parameterized over RNG seeds; each trial applies a different mutation.
class ClusterBlobFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterBlobFuzzTest, RandomByteFlipsNeverCrash) {
  const Cluster cluster = MakeCluster(GetParam());
  const std::vector<uint8_t> clean = EncodeCluster(cluster);
  Xoshiro256 rng(GetParam() * 31 + 7);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> blob = clean;
    // Flip 1..8 random bytes.
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int i = 0; i < flips; ++i) {
      blob[rng.NextBounded(blob.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    auto decoded = DecodeCluster(blob, HnswOptions{});
    if (decoded.ok()) {
      // A mutation that still decodes must yield a structurally valid graph
      // (e.g. the flip hit padding — CRC covers only the payload bytes).
      EXPECT_TRUE(decoded.value().index.Validate().ok());
    }
    // The in-place view accepts exactly what DecodeCluster accepts, and
    // whatever it accepts is safe to search.
    auto view = ClusterView::Parse(blob, {.metric = Metric::kL2});
    EXPECT_EQ(view.ok(), decoded.ok());
    if (view.ok()) {
      std::vector<Scored> out;
      view.value().Search(std::vector<float>(6, 0.5f), 5, 16, &out);
    }
    // Either way: no crash, no UB (ASAN-clean under sanitizer builds).
  }
}

TEST_P(ClusterBlobFuzzTest, RandomTruncationsNeverCrash) {
  const Cluster cluster = MakeCluster(GetParam());
  const std::vector<uint8_t> clean = EncodeCluster(cluster);
  Xoshiro256 rng(GetParam() * 53 + 11);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t keep = rng.NextBounded(clean.size());
    std::vector<uint8_t> blob(clean.begin(), clean.begin() + keep);
    auto decoded = DecodeCluster(blob, HnswOptions{});
    EXPECT_FALSE(decoded.ok()) << "decoded from " << keep << "/" << clean.size()
                               << " bytes";
  }
}

TEST_P(ClusterBlobFuzzTest, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(GetParam() * 77 + 13);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> garbage(64 + rng.NextBounded(4096));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    auto decoded = DecodeCluster(garbage, HnswOptions{});
    // Random bytes match magic+version+CRC with probability ~2^-80.
    EXPECT_FALSE(decoded.ok());
    (void)PeekClusterHeader(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterBlobFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(RegionHeaderFuzzTest, RandomBytesNeverCrash) {
  Xoshiro256 rng(991);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes(RegionHeader::kEncodedSize);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    (void)DecodeRegionHeader(bytes);  // must not crash
  }
}

TEST(ClusterMetaFuzzTest, RandomBytesEitherDecodeOrFail) {
  Xoshiro256 rng(992);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes(ClusterMeta::kEncodedSize);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    auto meta = DecodeClusterMeta(bytes);
    if (meta.ok()) {
      // Direction is validated; anything decoded must carry a legal one.
      EXPECT_LE(static_cast<uint32_t>(meta.value().direction), 1u);
    }
  }
}

TEST(ClusterMetaFuzzTest, RandomFieldsRoundTripThroughEncoder) {
  // Entries carry a static-field CRC, so arbitrary field values must
  // round-trip when produced by the encoder — and any single damaged byte
  // outside the FAA-mutated counter must be rejected.
  Xoshiro256 rng(996);
  for (int trial = 0; trial < 200; ++trial) {
    ClusterMeta m;
    m.blob_offset = rng.Next();
    m.blob_size = rng.Next();
    m.overflow_base = rng.Next();
    m.overflow_capacity = rng.Next();
    m.overflow_used = rng.Next();
    m.direction = static_cast<OverflowDirection>(rng.NextBounded(2));
    m.partner = static_cast<uint32_t>(rng.Next());
    m.record_size = static_cast<uint32_t>(rng.Next());
    m.node_slot = static_cast<uint32_t>(rng.Next());

    std::vector<uint8_t> bytes(ClusterMeta::kEncodedSize, 0xAB);
    EncodeClusterMeta(m, bytes);
    // Bytes [56, 68) are reserved and always encode as zero.
    EXPECT_TRUE(std::all_of(bytes.begin() + 56, bytes.begin() + ClusterMeta::kCrcOffset,
                            [](uint8_t b) { return b == 0; }));
    auto meta = DecodeClusterMeta(bytes);
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(static_cast<uint32_t>(meta.value().direction),
              static_cast<uint32_t>(m.direction));
    EXPECT_EQ(meta.value().blob_offset, m.blob_offset);
    EXPECT_EQ(meta.value().partner, m.partner);
  }
}

TEST(ClusterMetaFuzzTest, DamagedStaticBytesAreRejected) {
  ClusterMeta m;
  m.blob_offset = 4096;
  m.blob_size = 777;
  m.overflow_base = 8192;
  m.overflow_capacity = 1024;
  m.record_size = 40;
  std::vector<uint8_t> clean(ClusterMeta::kEncodedSize);
  EncodeClusterMeta(m, clean);

  for (size_t byte = 0; byte < ClusterMeta::kEncodedSize; ++byte) {
    std::vector<uint8_t> bytes = clean;
    bytes[byte] ^= 0x10;
    auto meta = DecodeClusterMeta(bytes);
    if (byte >= ClusterMeta::kUsedFieldOffset && byte < ClusterMeta::kUsedFieldOffset + 8) {
      // The FAA counter is outside the CRC by design: remote atomics mutate
      // it in place, so damage there is tolerated at this layer.
      EXPECT_TRUE(meta.ok()) << "byte " << byte;
    } else {
      EXPECT_FALSE(meta.ok()) << "byte " << byte;
    }
  }
}

TEST(RegionHeaderFuzzTest, DamagedHeaderBytesAreRejected) {
  RegionHeader h;
  h.num_clusters = 9;
  h.dim = 16;
  h.record_size = 80;
  h.table_offset = 64;
  h.meta_blob_offset = 1024;
  h.meta_blob_size = 512;
  std::vector<uint8_t> clean(RegionHeader::kEncodedSize);
  EncodeRegionHeader(h, clean);
  ASSERT_TRUE(DecodeRegionHeader(clean).ok());

  for (size_t byte = 0; byte < RegionHeader::kCrcOffset + 4; ++byte) {
    std::vector<uint8_t> bytes = clean;
    bytes[byte] ^= 0x01;
    EXPECT_FALSE(DecodeRegionHeader(bytes).ok()) << "byte " << byte;
  }
}

TEST(OverflowFuzzTest, RandomAreasNeverCrash) {
  Xoshiro256 rng(993);
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t dim = 1 + static_cast<uint32_t>(rng.NextBounded(16));
    std::vector<uint8_t> area(OverflowRecordSize(dim) * (1 + rng.NextBounded(8)));
    for (auto& b : area) b = static_cast<uint8_t>(rng.Next());
    const uint64_t used = rng.NextBounded(area.size() * 2);  // may exceed
    auto records = DecodeOverflowArea(area, used, dim);
    if (records.ok()) {
      EXPECT_LE(records.value().size() * OverflowRecordSize(dim), area.size());
    }
  }
}

TEST(MetaBlobFuzzTest, CorruptMetaBlobRejected) {
  const Dataset ds = MakeSynthetic({.dim = 8, .num_base = 300, .num_queries = 1,
                                    .num_clusters = 3, .seed = 994});
  MetaHnswOptions options;
  options.num_representatives = 20;
  auto meta = MetaHnsw::Build(ds.base, options);
  ASSERT_TRUE(meta.ok());
  std::vector<uint8_t> blob = meta.value().ToBlob();

  Xoshiro256 rng(995);
  int rejected = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> mutated = blob;
    // Corrupt within the payload (past the header) so the CRC must catch it.
    const size_t pos = ClusterHeader::kEncodedSize +
                       rng.NextBounded(mutated.size() - ClusterHeader::kEncodedSize);
    mutated[pos] ^= 0xFF;
    if (!MetaHnsw::FromBlob(mutated).ok()) ++rejected;
  }
  EXPECT_EQ(rejected, 100);
}

}  // namespace
}  // namespace dhnsw
