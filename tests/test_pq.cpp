// Product quantization end to end: codebook training + codec (index/pq.h),
// the PQ extension sections of the cluster blob (serialize/cluster_blob.h),
// and the engine-level `payload` read paths (ComputeOptions::payload):
//  - ADC scores match the exact distance to the reconstruction;
//  - a `payload=pq` deployment at dim 256 moves >= 8x fewer payload bytes
//    than `payload=raw`, verified through dhnsw_compute_bytes_loaded_total;
//  - `pq+rerank` recall@10 stays within 0.02 of raw on a SIFT-like slice;
//  - truncated / corrupted PQ sections fail kCorruption with a byte offset;
//  - same-seed runs with compression produce byte-identical wall-free traces.
#include "index/pq.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "index/distance.h"
#include "serialize/cluster_blob.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

std::vector<float> RandomResiduals(size_t n, uint32_t dim, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> out(n * dim);
  for (float& x : out) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  return out;
}

// --- ProductQuantizer -------------------------------------------------------

TEST(ProductQuantizerTest, TrainValidatesArguments) {
  const std::vector<float> samples = RandomResiduals(32, 8, 1);
  EXPECT_FALSE(ProductQuantizer::Train(8, 3, samples, 4, 1).ok());   // 3 !| 8
  EXPECT_FALSE(ProductQuantizer::Train(8, 0, samples, 4, 1).ok());
  EXPECT_FALSE(ProductQuantizer::Train(8, 2, {}, 4, 1).ok());        // no data
  EXPECT_TRUE(ProductQuantizer::Train(8, 2, samples, 4, 1).ok());
}

TEST(ProductQuantizerTest, TrainIsDeterministicPerSeed) {
  const std::vector<float> samples = RandomResiduals(600, 16, 7);
  auto a = ProductQuantizer::Train(16, 4, samples, 8, 99);
  auto b = ProductQuantizer::Train(16, 4, samples, 8, 99);
  auto c = ProductQuantizer::Train(16, 4, samples, 8, 100);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const auto ca = a.value().centroids();
  const auto cb = b.value().centroids();
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) EXPECT_EQ(ca[i], cb[i]) << i;
  bool any_diff = false;
  for (size_t i = 0; i < ca.size(); ++i) any_diff |= ca[i] != c.value().centroids()[i];
  EXPECT_TRUE(any_diff);
}

TEST(ProductQuantizerTest, EncodeDecodeReducesErrorVsZero) {
  // Reconstruction from an m=4 codebook must beat the trivial all-zeros
  // "reconstruction" by a wide margin on the training distribution.
  const uint32_t dim = 16;
  const std::vector<float> samples = RandomResiduals(2000, dim, 21);
  auto pq = ProductQuantizer::Train(dim, 4, samples, 10, 5);
  ASSERT_TRUE(pq.ok());
  std::vector<uint8_t> code(pq.value().code_size());
  std::vector<float> rec(dim);
  double err = 0.0, norm = 0.0;
  for (size_t i = 0; i < 200; ++i) {
    const std::span<const float> v(samples.data() + i * dim, dim);
    pq.value().Encode(v, code);
    pq.value().Decode(code, rec);
    for (uint32_t d = 0; d < dim; ++d) {
      err += static_cast<double>(v[d] - rec[d]) * (v[d] - rec[d]);
      norm += static_cast<double>(v[d]) * v[d];
    }
  }
  EXPECT_LT(err, 0.5 * norm);
}

TEST(ProductQuantizerTest, SerializationRoundTripsBitExact) {
  const std::vector<float> samples = RandomResiduals(500, 24, 3);
  auto pq = ProductQuantizer::Train(24, 6, samples, 6, 11);
  ASSERT_TRUE(pq.ok());
  auto back = ProductQuantizer::FromBytes(pq.value().ToBytes());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().dim(), 24u);
  EXPECT_EQ(back.value().m(), 6u);
  const auto a = pq.value().centroids();
  const auto b = back.value().centroids();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(ProductQuantizerTest, AdcEqualsExactDistanceToReconstruction) {
  // Contract (pq.h): adc(lut, code) + bias ==
  //   Pair(metric)(query, centroid + Decode(code)) up to summation-order ULPs.
  const uint32_t dim = 32;
  const std::vector<float> samples = RandomResiduals(1500, dim, 17);
  auto pq = ProductQuantizer::Train(dim, 8, samples, 8, 23);
  ASSERT_TRUE(pq.ok());

  Xoshiro256 rng(0xfeedu);
  std::vector<float> query(dim), centroid(dim), rec(dim), target(dim);
  std::vector<float> lut(pq.value().lut_floats()), scratch(dim);
  std::vector<uint8_t> code(pq.value().code_size());
  const KernelTable& kernels = ActiveKernels();
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    for (int rep = 0; rep < 20; ++rep) {
      for (auto& x : query) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
      for (auto& x : centroid) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
      const std::span<const float> sample(samples.data() + rep * dim, dim);
      pq.value().Encode(sample, code);
      pq.value().Decode(code, rec);
      for (uint32_t d = 0; d < dim; ++d) target[d] = centroid[d] + rec[d];

      const float bias =
          pq.value().BuildAdcLut(metric, query, centroid, lut.data(), scratch.data());
      const float adc = kernels.adc(lut.data(), code.data(), pq.value().m()) + bias;
      const float exact = kernels.Pair(metric)(query.data(), target.data(), dim);
      // Magnitude-relative budget: the LUT precomputation sums per-subspace
      // in a different order than the flat pairwise kernel.
      double magnitude = 1.0;
      for (uint32_t d = 0; d < dim; ++d) {
        magnitude += std::abs(static_cast<double>(query[d]) * target[d]) +
                     std::abs(static_cast<double>(target[d]) * target[d]);
      }
      EXPECT_LE(std::abs(static_cast<double>(adc) - exact), 64.0 * 1.1920929e-7 * magnitude)
          << MetricName(metric) << " rep=" << rep << " adc=" << adc << " exact=" << exact;
    }
  }
}

// --- Blob extension sections ------------------------------------------------

Cluster MakeCluster(uint32_t partition_id, uint32_t count, uint32_t dim, uint64_t seed) {
  Xoshiro256 rng(seed);
  HnswIndex index(dim, {.M = 6, .ef_construction = 40, .seed = seed});
  std::vector<uint32_t> gids;
  std::vector<float> v(dim);
  for (uint32_t i = 0; i < count; ++i) {
    for (auto& x : v) x = rng.NextFloat() * 10.0f;
    index.Add(v);
    gids.push_back(500 + i * 2);
  }
  return Cluster(partition_id, std::move(index), std::move(gids));
}

struct EncodedPq {
  ProductQuantizer pq;
  std::vector<uint8_t> blob;
  uint64_t head_size = 0;
  uint32_t count = 0;
};

EncodedPq MakeEncodedPqCluster(uint32_t count, uint32_t dim, uint64_t seed) {
  const Cluster cluster = MakeCluster(3, count, dim, seed);
  const std::vector<float> samples = RandomResiduals(512, dim, seed + 1);
  auto pq = ProductQuantizer::Train(dim, 4, samples, 6, seed);
  EXPECT_TRUE(pq.ok());
  std::vector<uint8_t> codes(static_cast<size_t>(count) * pq.value().m());
  for (uint32_t i = 0; i < count; ++i) {
    pq.value().Encode(cluster.index.vector(i),
                      std::span<uint8_t>(codes).subspan(
                          static_cast<size_t>(i) * pq.value().m(), pq.value().m()));
  }
  ClusterPqExtensions ext;
  ext.codes = codes;
  ext.code_m = pq.value().m();
  uint64_t head = 0;
  std::vector<uint8_t> blob = EncodeCluster(cluster, ext, &head);
  return EncodedPq{std::move(pq).value(), std::move(blob), head, count};
}

TEST(PqBlobTest, PrefixDecodeRecoversGraphAndCodes) {
  const EncodedPq enc = MakeEncodedPqCluster(80, 12, 31);
  ASSERT_GT(enc.head_size, 0u);
  ASSERT_LT(enc.head_size, enc.blob.size());

  // Decode from EXACTLY the prefix a payload=pq READ returns.
  auto pc = DecodePqCluster(std::span<const uint8_t>(enc.blob).first(enc.head_size));
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  EXPECT_EQ(pc.value().partition_id, 3u);
  EXPECT_EQ(pc.value().count, enc.count);
  EXPECT_EQ(pc.value().m, enc.pq.m());
  EXPECT_EQ(pc.value().codes.size(), static_cast<size_t>(enc.count) * enc.pq.m());

  // The full blob still decodes on the raw path, graph identical.
  auto raw = DecodeCluster(enc.blob, HnswOptions{});
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw.value().global_ids, pc.value().global_ids);
  for (uint32_t id = 0; id < enc.count; ++id) {
    ASSERT_EQ(raw.value().index.level(id), pc.value().levels[id]);
    for (uint32_t layer = 0; layer <= pc.value().levels[id]; ++layer) {
      const auto a = raw.value().index.neighbors(id, layer);
      const auto b = pc.value().neighbors(id, layer);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "id=" << id << " layer=" << layer;
    }
  }
}

TEST(PqBlobTest, TruncatedPrefixFailsCorruptionWithOffset) {
  const EncodedPq enc = MakeEncodedPqCluster(40, 8, 32);
  for (size_t cut : {enc.head_size - 1, enc.head_size / 2, size_t{50}}) {
    auto pc = DecodePqCluster(std::span<const uint8_t>(enc.blob).first(cut));
    ASSERT_FALSE(pc.ok()) << "cut=" << cut;
    EXPECT_EQ(pc.status().code(), StatusCode::kCorruption) << "cut=" << cut;
  }
  // The just-too-short case reports where the prefix ended.
  auto pc = DecodePqCluster(std::span<const uint8_t>(enc.blob).first(enc.head_size - 1));
  EXPECT_NE(pc.status().ToString().find("offset"), std::string::npos)
      << pc.status().ToString();
}

TEST(PqBlobTest, CorruptedSectionBytesFailCorruption) {
  const EncodedPq enc = MakeEncodedPqCluster(40, 8, 33);
  // Flip one byte inside the extension area (section body -> CRC mismatch).
  std::vector<uint8_t> bad = enc.blob;
  bad[ClusterHeader::kEncodedSize + 12] ^= 0xff;
  auto pc = DecodePqCluster(std::span<const uint8_t>(bad).first(enc.head_size));
  ASSERT_FALSE(pc.ok());
  EXPECT_EQ(pc.status().code(), StatusCode::kCorruption);
  EXPECT_NE(pc.status().ToString().find("offset"), std::string::npos)
      << pc.status().ToString();

  // Flip one byte in the graph prefix (payload -> graph_crc mismatch).
  bad = enc.blob;
  bad[enc.head_size - 3] ^= 0xff;
  auto pc2 = DecodePqCluster(std::span<const uint8_t>(bad).first(enc.head_size));
  ASSERT_FALSE(pc2.ok());
  EXPECT_EQ(pc2.status().code(), StatusCode::kCorruption);
}

TEST(PqBlobTest, BlobWithoutCodesSectionIsRejected) {
  const Cluster cluster = MakeCluster(1, 20, 8, 34);
  const std::vector<uint8_t> blob = EncodeCluster(cluster);
  auto pc = DecodePqCluster(blob);
  ASSERT_FALSE(pc.ok());
  EXPECT_EQ(pc.status().code(), StatusCode::kCorruption);
}

TEST(PqBlobTest, CodebookRidesTheMetaBlob) {
  const std::vector<float> samples = RandomResiduals(400, 8, 35);
  auto pq = ProductQuantizer::Train(8, 2, samples, 6, 35);
  ASSERT_TRUE(pq.ok());
  const Cluster cluster = MakeCluster(0, 10, 8, 35);
  ClusterPqExtensions ext;
  ext.codebook = &pq.value();
  const std::vector<uint8_t> blob = EncodeCluster(cluster, ext, nullptr);

  auto decoded = DecodeClusterCodebook(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded.value().has_value());
  EXPECT_EQ(decoded.value()->dim(), 8u);

  // A codebook-free blob yields nullopt, not an error.
  auto plain = DecodeClusterCodebook(EncodeCluster(cluster));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().has_value());
}

// --- Engine-level payload modes ---------------------------------------------

DhnswConfig PqEngineConfig(uint32_t pq_m = 8) {
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 8;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 60};
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 4;
  config.pq.enabled = true;
  config.pq.m = pq_m;
  config.pq.train_iterations = 8;
  config.pq.train_sample_cap = 4096;
  return config;
}

TEST(PqEngineTest, PayloadPqNeedsAPqDeployment) {
  Dataset ds = MakeSynthetic({.dim = 16, .num_base = 400, .num_queries = 4,
                              .num_clusters = 4, .seed = 404});
  DhnswConfig config = PqEngineConfig(4);
  config.pq.enabled = false;
  config.compute.payload = PayloadMode::kPq;
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(PqEngineTest, PqRejectsCosineAndNonDividingM) {
  Dataset ds = MakeSynthetic({.dim = 16, .num_base = 300, .num_queries = 2,
                              .num_clusters = 3, .seed = 405});
  DhnswConfig bad_m = PqEngineConfig(5);  // 5 does not divide 16
  EXPECT_EQ(DhnswEngine::Build(ds.base, bad_m).status().code(),
            StatusCode::kInvalidArgument);

  DhnswConfig cosine = DhnswConfig::Defaults(Metric::kCosine);
  cosine.meta.num_representatives = 4;
  cosine.pq.enabled = true;
  cosine.pq.m = 4;
  EXPECT_EQ(DhnswEngine::Build(ds.base, cosine).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PqEngineTest, PqPayloadMovesAtLeast8xFewerBytesAtDim256) {
  // The acceptance ratio: raw payload = dim*4 = 1024 B/vector; the pq prefix
  // replaces the rows with m = 8 code bytes/vector. Graph + ids overhead is
  // identical on both sides, so dim 256 clears 8x with margin.
  Dataset ds = MakeSynthetic({.dim = 256, .num_base = 1200, .num_queries = 16,
                              .num_clusters = 8, .seed = 256256});
  telemetry::Counter* bytes_loaded =
      telemetry::DefaultRegistry().GetCounter("dhnsw_compute_bytes_loaded_total");

  DhnswConfig raw_config = PqEngineConfig(8);
  raw_config.compute.payload = PayloadMode::kRaw;
  auto raw = DhnswEngine::Build(ds.base, raw_config);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const uint64_t raw_before = bytes_loaded->value();
  auto raw_result = raw.value().SearchAll(ds.queries, 10, 64);
  ASSERT_TRUE(raw_result.ok());
  const uint64_t raw_bytes = bytes_loaded->value() - raw_before;

  DhnswConfig pq_config = PqEngineConfig(8);
  pq_config.compute.payload = PayloadMode::kPq;
  auto pq = DhnswEngine::Build(ds.base, pq_config);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  const uint64_t pq_before = bytes_loaded->value();
  auto pq_result = pq.value().SearchAll(ds.queries, 10, 64);
  ASSERT_TRUE(pq_result.ok());
  const uint64_t pq_bytes = bytes_loaded->value() - pq_before;

  ASSERT_GT(pq_bytes, 0u);
  EXPECT_GE(raw_bytes, 8 * pq_bytes)
      << "raw=" << raw_bytes << " pq=" << pq_bytes << " ratio="
      << static_cast<double>(raw_bytes) / static_cast<double>(pq_bytes);
  // Both modes route to the same clusters and return the same number of rows.
  ASSERT_EQ(raw_result.value().results.size(), pq_result.value().results.size());
}

TEST(PqEngineTest, PqRerankRecallWithin002OfRawOnSiftSlice) {
  Dataset ds = MakeSiftLike(4000, 64, 77);
  ComputeGroundTruth(&ds, 10);

  DhnswConfig raw_config = PqEngineConfig(8);
  raw_config.compute.payload = PayloadMode::kRaw;
  auto raw = DhnswEngine::Build(ds.base, raw_config);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto raw_result = raw.value().SearchAll(ds.queries, 10, 96);
  ASSERT_TRUE(raw_result.ok());
  const double raw_recall = MeanRecallAtK(ds, raw_result.value().results, 10);

  DhnswConfig rr_config = PqEngineConfig(8);
  rr_config.compute.payload = PayloadMode::kPqRerank;
  rr_config.compute.rerank_depth = 32;
  auto rr = DhnswEngine::Build(ds.base, rr_config);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  auto rr_result = rr.value().SearchAll(ds.queries, 10, 96);
  ASSERT_TRUE(rr_result.ok());
  const double rr_recall = MeanRecallAtK(ds, rr_result.value().results, 10);

  EXPECT_GE(rr_recall, raw_recall - 0.02)
      << "raw=" << raw_recall << " pq+rerank=" << rr_recall;
  // The re-rank stage actually ran and fetched exact rows.
  EXPECT_GT(rr_result.value().breakdown.rerank_candidates, 0u);
  EXPECT_GT(rr_result.value().breakdown.rerank_bytes, 0u);
  EXPECT_EQ(rr_result.value().breakdown.rerank_fallbacks, 0u);
}

TEST(PqEngineTest, ByteBudgetCacheKeepsResultsIdentical) {
  Dataset ds = MakeSynthetic({.dim = 32, .num_base = 1500, .num_queries = 20,
                              .num_clusters = 6, .seed = 909});
  DhnswConfig base_config = PqEngineConfig(8);
  base_config.compute.payload = PayloadMode::kPq;

  auto unlimited = DhnswEngine::Build(ds.base, base_config);
  ASSERT_TRUE(unlimited.ok());
  auto a = unlimited.value().SearchAll(ds.queries, 5, 48);
  ASSERT_TRUE(a.ok());

  DhnswConfig budget_config = base_config;
  budget_config.compute.cache_budget_bytes = 64 * 1024;  // a few clusters
  auto budgeted = DhnswEngine::Build(ds.base, budget_config);
  ASSERT_TRUE(budgeted.ok());
  auto b = budgeted.value().SearchAll(ds.queries, 5, 48);
  ASSERT_TRUE(b.ok());

  ASSERT_EQ(a.value().results.size(), b.value().results.size());
  for (size_t q = 0; q < a.value().results.size(); ++q) {
    ASSERT_EQ(a.value().results[q].size(), b.value().results[q].size()) << q;
    for (size_t j = 0; j < a.value().results[q].size(); ++j) {
      EXPECT_EQ(a.value().results[q][j].id, b.value().results[q][j].id) << q;
    }
  }
}

// A PQ-provisioned region read with payload=raw: each blob carries a codes
// section of 32 + count*m bytes in front of the payload, so clusters with an
// odd count*m have their rows off 4-byte alignment. Those are searched in a
// realigned copy, the rest in place; either way the results must equal those
// of the same deployment provisioned without codes.
TEST(PqEngineTest, RawPayloadOnPqRegionMatchesPlainRegion) {
  Dataset ds = MakeSynthetic({.dim = 12, .num_base = 801, .num_queries = 24,
                              .num_clusters = 6, .seed = 1212});
  DhnswConfig pq_config = PqEngineConfig(3);
  pq_config.compute.payload = PayloadMode::kRaw;
  DhnswConfig plain_config = pq_config;
  plain_config.pq.enabled = false;
  auto pq = DhnswEngine::Build(ds.base, pq_config);
  auto plain = DhnswEngine::Build(ds.base, plain_config);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  bool some_misaligned = false;
  for (const ClusterMeta& m : pq.value().memory_node()->plan().entries) {
    ASSERT_GT(m.pq_head_size, 0u);
    some_misaligned |= (m.blob_size - ClusterHeader::kEncodedSize) % 2 == 1;
  }
  ASSERT_TRUE(some_misaligned) << "no cluster with an odd count*m; the test proves nothing";

  auto a = pq.value().SearchAll(ds.queries, 10, 48);
  auto b = plain.value().SearchAll(ds.queries, 10, 48);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  for (size_t q = 0; q < ds.queries.size(); ++q) {
    const auto& ra = a.value().results[q];
    const auto& rb = b.value().results[q];
    ASSERT_EQ(ra.size(), rb.size()) << "query " << q;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(ra[i].distance, rb[i].distance) << "query " << q << " rank " << i;
    }
  }
}

TEST(PqEngineTest, CompactionPreservesPqDeployment) {
  Dataset ds = MakeSynthetic({.dim = 16, .num_base = 800, .num_queries = 10,
                              .num_clusters = 4, .seed = 606});
  DhnswConfig config = PqEngineConfig(4);
  config.compute.payload = PayloadMode::kPqRerank;
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<float> v(16, 0.5f);
  for (int i = 0; i < 10; ++i) {
    v[0] = static_cast<float>(i);
    ASSERT_TRUE(engine.value().Insert(v).ok());
  }
  auto stats = engine.value().Compact();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // The compacted region must still carry codes: payload=pq+rerank reconnected
  // above and keeps answering.
  auto result = engine.value().SearchAll(ds.queries, 5, 32);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& per_query : result.value().results) EXPECT_EQ(per_query.size(), 5u);
}

TEST(PqEngineTest, SameSeedTracesAreByteIdenticalUnderCompression) {
  Dataset ds = MakeSynthetic({.dim = 32, .num_base = 900, .num_queries = 12,
                              .num_clusters = 5, .seed = 515});
  for (PayloadMode mode : {PayloadMode::kPq, PayloadMode::kPqRerank}) {
    DhnswConfig config = PqEngineConfig(8);
    config.compute.payload = mode;
    // Byte-identical same-seed traces are a simulator-only contract.
    config.transport = rdma::TransportOptions::Sim();
    std::string first;
    for (int run = 0; run < 2; ++run) {
      auto engine = DhnswEngine::Build(ds.base, config);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      engine.value().EnableTracing(4096);
      ASSERT_TRUE(engine.value().SearchAll(ds.queries, 5, 48).ok());
      const std::string jsonl = telemetry::TraceToJsonl(
          engine.value().trace(), telemetry::TraceExportOptions{.include_wall = false});
      ASSERT_FALSE(jsonl.empty());
      if (run == 0) {
        first = jsonl;
      } else {
        EXPECT_EQ(first, jsonl) << PayloadModeName(mode);
      }
    }
  }
}

}  // namespace
}  // namespace dhnsw
