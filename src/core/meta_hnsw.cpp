#include "core/meta_hnsw.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/thread_pool.h"
#include "serialize/cluster_blob.h"

namespace dhnsw {
namespace {

/// The meta graph is serialized with the generic cluster codec; this sentinel
/// partition id marks a blob as "the meta-HNSW", not a sub-HNSW.
constexpr uint32_t kMetaPartitionId = 0xFFFFFFFFu;

/// Uniform sample of `count` distinct indices from [0, n) (partial
/// Fisher-Yates over an index array).
std::vector<uint32_t> SampleIndices(size_t n, uint32_t count, uint64_t seed) {
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  Xoshiro256 rng(seed);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t j = i + rng.NextBounded(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());  // deterministic, cache-friendly order
  return all;
}

/// Fixed work-splitting grain for the k-means scans. Chunk boundaries are a
/// pure function of (n, grain) — never of the worker count — so every
/// parallel stage below produces bit-identical output on 1, 2, or 64 threads.
constexpr size_t kKmeansGrain = 2048;

/// Lloyd's k-means over the base set, seeded by a uniform sample; returns
/// the base-row index nearest each final centroid (medoid snap) so that
/// representatives stay actual data points, preserving the paper's "each
/// vector in L0 defines a partition and serves as an entry point" semantics.
///
/// `pool` (optional) parallelizes the two O(n·r·d) scans — assignment and
/// medoid snap. The result is bit-identical to the sequential run: assignment
/// writes are disjoint per row, the centroid-update reduction stays
/// sequential, and the medoid argmin conflicts are resolved sequentially in
/// centroid order (see below).
std::vector<uint32_t> KmeansRepresentatives(const VectorSet& base, uint32_t r,
                                            uint32_t iterations, uint64_t seed,
                                            ThreadPool* pool) {
  const uint32_t dim = base.dim();
  const size_t n = base.size();
  const bool parallel = pool != nullptr && pool->num_threads() > 1;

  std::vector<uint32_t> init = SampleIndices(n, r, seed);
  std::vector<float> centroids(static_cast<size_t>(r) * dim);
  for (uint32_t c = 0; c < r; ++c) {
    const auto v = base[init[c]];
    std::copy(v.begin(), v.end(), centroids.begin() + static_cast<size_t>(c) * dim);
  }

  // k-means is L2 by definition regardless of the index metric; the centroid
  // block is contiguous, so each row is assigned with one batched-kernel call.
  const RowsKernel l2_rows = ActiveKernels().l2_rows;
  std::vector<float> dists(std::max<size_t>(r, n));

  std::vector<uint32_t> assign(n, 0);
  std::vector<double> sums(static_cast<size_t>(r) * dim);
  std::vector<uint32_t> counts(r);
  const auto assign_rows = [&](size_t begin, size_t end, float* row_dists) {
    for (size_t i = begin; i < end; ++i) {
      l2_rows(base[i].data(), centroids.data(), dim, r, row_dists);
      float best = std::numeric_limits<float>::max();
      uint32_t best_c = 0;
      for (uint32_t c = 0; c < r; ++c) {
        if (row_dists[c] < best) {
          best = row_dists[c];
          best_c = c;
        }
      }
      assign[i] = best_c;
    }
  };
  for (uint32_t iter = 0; iter < iterations; ++iter) {
    // Assign (parallel; per-row writes, so chunking cannot change the result).
    if (parallel) {
      pool->ParallelForChunked(n, kKmeansGrain, [&](size_t begin, size_t end) {
        std::vector<float> local(r);
        assign_rows(begin, end, local.data());
      });
    } else {
      assign_rows(0, n, dists.data());
    }
    // Update: sequential on purpose — the float accumulation order is part of
    // the deterministic-build contract, and it is O(n·d) against the
    // assignment's O(n·r·d).
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) {
      const auto v = base[i];
      double* sum = sums.data() + static_cast<size_t>(assign[i]) * dim;
      for (uint32_t d = 0; d < dim; ++d) sum[d] += v[d];
      ++counts[assign[i]];
    }
    for (uint32_t c = 0; c < r; ++c) {
      if (counts[c] == 0) continue;  // re-seeded below, from the largest cluster
      float* centroid = centroids.data() + static_cast<size_t>(c) * dim;
      const double* sum = sums.data() + static_cast<size_t>(c) * dim;
      for (uint32_t d = 0; d < dim; ++d) {
        centroid[d] = static_cast<float>(sum[d] / counts[c]);
      }
    }
    // Empty clusters: the old behavior silently kept the stale centroid, so a
    // cluster that lost all members stayed dead for every remaining round and
    // the medoid snap later collapsed it onto an already-taken row. Re-seed
    // each empty cluster (in index order, deterministically) from the point
    // farthest from the largest cluster's centroid — the classic split of the
    // heaviest cluster.
    for (uint32_t c = 0; c < r; ++c) {
      if (counts[c] != 0) continue;
      uint32_t donor = 0;
      for (uint32_t d = 1; d < r; ++d) {
        if (counts[d] > counts[donor]) donor = d;  // lowest index wins ties
      }
      if (counts[donor] < 2) break;  // nothing left to split
      l2_rows(centroids.data() + static_cast<size_t>(donor) * dim,
              base.flat().data(), dim, n, dists.data());
      float worst = -1.0f;
      uint32_t worst_row = 0;
      for (size_t i = 0; i < n; ++i) {
        if (assign[i] != donor) continue;
        if (dists[i] > worst) {  // strict >: lowest index wins ties
          worst = dists[i];
          worst_row = static_cast<uint32_t>(i);
        }
      }
      const auto v = base[worst_row];
      std::copy(v.begin(), v.end(),
                centroids.begin() + static_cast<size_t>(c) * dim);
      assign[worst_row] = c;
      counts[c] = 1;
      --counts[donor];
    }
  }

  // Medoid snap: nearest base row per centroid, de-duplicated. The base set
  // is contiguous, so each centroid's scan is one batched-kernel call.
  //
  // Parallel form: each centroid's UNCONSTRAINED argmin (no taken mask) is
  // computed concurrently, then conflicts are resolved sequentially in
  // centroid order — a centroid whose global argmin is already taken rescans
  // under the mask. Proof of equivalence to the old sequential loop: the
  // strict-< scan picks the lowest-index minimum; if that row is untaken it
  // is also the lowest-index minimum over untaken rows (the old answer), and
  // if taken, the masked rescan IS the old scan.
  std::vector<uint32_t> snap_row(r, 0);
  const auto snap_centroids = [&](size_t begin, size_t end, float* row_dists) {
    for (size_t c = begin; c < end; ++c) {
      l2_rows(centroids.data() + c * dim, base.flat().data(), dim, n, row_dists);
      float best = std::numeric_limits<float>::max();
      uint32_t best_row = 0;
      for (size_t i = 0; i < n; ++i) {
        if (row_dists[i] < best) {
          best = row_dists[i];
          best_row = static_cast<uint32_t>(i);
        }
      }
      snap_row[c] = best_row;
    }
  };
  if (parallel) {
    // Grain 1: each centroid scan is already a large batched-kernel call.
    pool->ParallelForChunked(r, 1, [&](size_t begin, size_t end) {
      std::vector<float> local(n);
      snap_centroids(begin, end, local.data());
    });
  } else {
    snap_centroids(0, r, dists.data());
  }

  std::vector<uint32_t> reps;
  std::vector<uint8_t> taken(n, 0);
  for (uint32_t c = 0; c < r; ++c) {
    uint32_t row = snap_row[c];
    if (taken[row]) {
      // Conflict: rescan this centroid under the taken mask (rare).
      l2_rows(centroids.data() + static_cast<size_t>(c) * dim,
              base.flat().data(), dim, n, dists.data());
      float best = std::numeric_limits<float>::max();
      bool found = false;
      for (size_t i = 0; i < n; ++i) {
        if (taken[i]) continue;
        if (dists[i] < best) {
          best = dists[i];
          row = static_cast<uint32_t>(i);
          found = true;
        }
      }
      if (!found) continue;
    }
    taken[row] = 1;
    reps.push_back(row);
  }
  std::sort(reps.begin(), reps.end());
  return reps;
}

HnswOptions MetaGraphOptions(const MetaHnswOptions& options) {
  HnswOptions h;
  h.M = options.m;
  h.ef_construction = options.ef_construction;
  h.metric = options.metric;
  h.seed = options.seed;
  h.max_level = 2;  // paper §3.1: a three-layer representative HNSW
  return h;
}

}  // namespace

Result<MetaHnsw> MetaHnsw::Build(const VectorSet& base, const MetaHnswOptions& options) {
  if (base.empty()) return Status::InvalidArgument("meta-HNSW: empty base set");
  const uint32_t r = static_cast<uint32_t>(
      std::min<size_t>(options.num_representatives, base.size()));
  if (r == 0) return Status::InvalidArgument("meta-HNSW: zero representatives");

  std::vector<uint32_t> rep_ids;
  if (options.selection == RepresentativeSelection::kKmeans) {
    std::unique_ptr<ThreadPool> pool;
    if (options.build_threads > 1) {
      pool = std::make_unique<ThreadPool>(options.build_threads);
    }
    rep_ids = KmeansRepresentatives(base, r, options.kmeans_iterations,
                                    options.seed, pool.get());
  } else {
    rep_ids = SampleIndices(base.size(), r, options.seed);
  }

  HnswIndex index(base.dim(), MetaGraphOptions(options));
  for (uint32_t id : rep_ids) index.Add(base[id]);
  DHNSW_RETURN_IF_ERROR(index.Validate());
  return MetaHnsw(std::move(index), std::move(rep_ids), options.ef_route);
}

Result<MetaHnsw> MetaHnsw::FromBlob(std::span<const uint8_t> blob, ClusterExpect expect) {
  expect.partition_id = kMetaPartitionId;
  // M and (unless `expect` pins it) the metric come from the blob header.
  DHNSW_ASSIGN_OR_RETURN(Cluster cluster, DecodeCluster(blob, HnswOptions{}, expect));
  // ef_route is a local search knob, not graph state; start from the default.
  return MetaHnsw(std::move(cluster.index), std::move(cluster.global_ids),
                  MetaHnswOptions{}.ef_route);
}

std::vector<uint8_t> MetaHnsw::ToBlob() const {
  // Cheap structural copy through the generic codec: build a Cluster view.
  // (Encode only reads through const accessors, but Cluster owns its parts,
  // so serialize via a temporary raw rebuild.)
  std::vector<std::vector<std::vector<uint32_t>>> links(index_.size());
  std::vector<uint32_t> levels(index_.size());
  for (uint32_t id = 0; id < index_.size(); ++id) {
    levels[id] = index_.level(id);
    links[id].resize(levels[id] + 1);
    for (uint32_t layer = 0; layer <= levels[id]; ++layer) {
      const auto nbs = index_.neighbors(id, layer);
      links[id][layer].assign(nbs.begin(), nbs.end());
    }
  }
  auto copy = HnswIndex::FromRaw(
      index_.dim(), index_.options(),
      std::vector<float>(index_.vectors().begin(), index_.vectors().end()),
      std::move(levels), std::move(links), index_.entry_point());
  Cluster view(kMetaPartitionId, std::move(copy).value(), rep_global_ids_);
  return EncodeCluster(view);
}

uint32_t MetaHnsw::RouteOne(std::span<const float> v) const {
  const std::vector<Scored> top = index_.Search(v, 1, ef_route_);
  return top.empty() ? 0 : top.front().id;
}

std::vector<uint32_t> MetaHnsw::RouteMany(std::span<const float> v, uint32_t b) const {
  const std::vector<Scored> top = index_.Search(v, b, std::max(ef_route_, b));
  std::vector<uint32_t> out;
  out.reserve(top.size());
  for (const Scored& s : top) out.push_back(s.id);
  return out;
}

}  // namespace dhnsw
