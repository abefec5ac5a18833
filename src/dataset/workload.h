// Query-stream workload generators.
//
// The paper evaluates with uniformly drawn queries per batch; real serving
// traffic is skewed (popular topics dominate) and drifts over time. These
// generators shape query streams over an existing dataset so the cache and
// batching experiments can be run against realistic access patterns:
//   - Uniform:   every query picks a random base region (paper's setup),
//   - Zipfian:   topics are ranked and sampled with power-law popularity —
//                cross-batch cache hit rates depend strongly on this,
//   - Drifting:  a sliding hot-set that moves each batch, stressing cache
//                churn and the "retain for the next batch" policy (§3.3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dataset/dataset.h"

namespace dhnsw {

enum class WorkloadShape : uint8_t { kUniform, kZipfian, kDrifting };

struct WorkloadSpec {
  WorkloadShape shape = WorkloadShape::kUniform;
  double zipf_s = 1.1;          ///< Zipf exponent (kZipfian)
  uint32_t num_topics = 32;     ///< popularity buckets over the base set
  uint32_t hot_topics = 4;      ///< size of the moving hot-set (kDrifting)
  float noise_stddev = 0.05f;   ///< query = base vector + noise * this * scale
  uint64_t seed = 1;
  /// Optional explicit row -> topic map (e.g. the partitioner's assignment,
  /// making topics == d-HNSW partitions so skew concentrates cluster
  /// demand). Empty: topic t covers the contiguous slice [t*n/T, (t+1)*n/T).
  std::vector<uint32_t> row_topics = {};
};

/// Draws query batches over `base`: each query is a noisy copy of a base
/// vector picked according to the workload shape.
class QueryStream {
 public:
  QueryStream(const VectorSet& base, WorkloadSpec spec);

  /// Produces the next batch of `count` queries. For kDrifting, each call
  /// advances the hot-set by one topic.
  VectorSet NextBatch(size_t count);

  /// Topic a given base row belongs to (test/analysis hook).
  uint32_t TopicOf(size_t base_row) const noexcept;

 private:
  size_t DrawRow();

  const VectorSet& base_;
  WorkloadSpec spec_;
  Xoshiro256 rng_;
  std::vector<double> zipf_cdf_;  ///< precomputed topic CDF for kZipfian
  /// topic -> member rows (explicit-map mode); empty in contiguous mode.
  std::vector<std::vector<uint32_t>> topic_rows_;
  uint32_t drift_offset_ = 0;
  float noise_scale_ = 1.0f;      ///< estimated per-dim data scale
};

}  // namespace dhnsw
