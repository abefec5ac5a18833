// meta-HNSW: the lightweight representative index cached in every compute
// instance (paper §3.1, Fig. 3).
//
// Built over `R` uniformly sampled base vectors (paper: R = 500) as a
// *three-layer* HNSW. Each bottom-layer vector defines one partition; the
// meta-HNSW therefore acts both as the coarse router (greedy descent from the
// fixed top-layer entry point) and as the cluster classifier used at build
// time to assign every base vector to a partition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dataset/dataset.h"
#include "index/hnsw.h"
#include "serialize/cluster_blob.h"

namespace dhnsw {

/// How the R representatives are chosen from the base set.
enum class RepresentativeSelection : uint8_t {
  /// Uniform sampling — the paper's method ("uniformly selecting 500
  /// vectors", §3.1). Cheap; partition sizes follow the data density.
  kUniformSample = 0,
  /// Lloyd's k-means (centroids snapped to their nearest base vector so
  /// representatives remain real data points) — the Pyramid-style [4]
  /// alternative. Costlier build, more balanced partitions.
  kKmeans = 1,
};

struct MetaHnswOptions {
  uint32_t num_representatives = 500;  ///< R; clamped to the base size
  uint32_t m = 8;                      ///< HNSW M for the meta graph
  uint32_t ef_construction = 100;
  uint32_t ef_route = 32;              ///< ef used when routing a vector
  Metric metric = Metric::kL2;
  uint64_t seed = 0x4d455441ULL;       ///< sampling + level-assignment seed
  RepresentativeSelection selection = RepresentativeSelection::kUniformSample;
  uint32_t kmeans_iterations = 8;      ///< Lloyd rounds (kKmeans only)
  /// Worker threads for the k-means assignment and medoid-snap scans
  /// (kKmeans only; the 3-layer graph build itself stays sequential — R is
  /// tiny). The result is bit-identical for every thread count: assignment
  /// writes are per-row, the centroid update reduction is sequential, and
  /// the parallel medoid argmin is resolved sequentially in centroid order.
  uint32_t build_threads = 1;
};

class MetaHnsw {
 public:
  /// Samples representatives from `base` (uniform, seeded) and builds the
  /// 3-layer graph. Representative i defines partition i.
  static Result<MetaHnsw> Build(const VectorSet& base, const MetaHnswOptions& options);

  /// Reconstructs a meta-HNSW from its serialized blob (compute instances
  /// fetch the blob from the memory pool once at connection time). Readers
  /// that hold the RegionHeader pass its metric and dim in `expect`; the
  /// partition id is always checked against the meta-HNSW's.
  static Result<MetaHnsw> FromBlob(std::span<const uint8_t> blob,
                                   ClusterExpect expect = {});

  uint32_t num_partitions() const noexcept { return static_cast<uint32_t>(index_.size()); }
  uint32_t dim() const noexcept { return index_.dim(); }
  const HnswIndex& index() const noexcept { return index_; }

  /// Global base-vector id of representative `partition`.
  uint32_t representative_global_id(uint32_t partition) const {
    return rep_global_ids_[partition];
  }

  /// Routing search width (compute instances may tune it per ComputeOptions).
  uint32_t ef_route() const noexcept { return ef_route_; }
  void set_ef_route(uint32_t ef) noexcept { ef_route_ = ef == 0 ? 1 : ef; }

  /// Routes a vector to its single nearest partition (build-time classifier
  /// and insert-path router).
  uint32_t RouteOne(std::span<const float> v) const;

  /// Routes a query to its `b` closest partitions, best first (query path).
  std::vector<uint32_t> RouteMany(std::span<const float> v, uint32_t b) const;

  /// Serialized form — what the memory pool stores and compute nodes cache.
  /// (The paper reports 0.373 MB for SIFT1M, 1.960 MB for GIST1M.)
  std::vector<uint8_t> ToBlob() const;

 private:
  MetaHnsw(HnswIndex index, std::vector<uint32_t> rep_global_ids, uint32_t ef_route)
      : index_(std::move(index)), rep_global_ids_(std::move(rep_global_ids)),
        ef_route_(ef_route) {}

  HnswIndex index_;                     ///< graph over representatives
  std::vector<uint32_t> rep_global_ids_;///< partition -> base-vector id
  uint32_t ef_route_;
};

}  // namespace dhnsw
