// Hierarchical Navigable Small World graph index, implemented from scratch
// after Malkov & Yashunin (TPAMI 2018) [paper ref 20].
//
// Supported:
//  - dynamic insertion with exponentially distributed level assignment,
//  - neighbor selection by the diversity heuristic (paper's Algorithm 4),
//    with the `extend_candidates` / `keep_pruned_connections` switches,
//  - layered greedy search with an `ef` dynamic candidate list,
//  - an optional hard cap on the top level (d-HNSW's meta-HNSW is exactly a
//    3-layer HNSW, paper §3.1),
//  - full structural introspection so the serializer can lay the graph out
//    for one-sided RDMA access.
//
// Hot path: all distance evaluations go through the startup-dispatched SIMD
// kernel table (index/distance.h), neighbor lists are scored with the batched
// one-to-many kernel (dispatch hoisted out of every loop), and each search
// leases a pooled SearchScratch (epoch-stamped visited list + reusable
// heaps), so a steady-state Search performs no heap allocations.
//
// Concurrency: `Search` is const and safe to call from many threads
// concurrently; `Add` requires external exclusion (d-HNSW serializes inserts
// per partition, so the index itself stays single-writer). The bulk-build
// path `AddBatchParallel` is the one exception: it inserts a whole batch
// concurrently under per-node neighbor-list locks (see its contract below);
// no other mutation — and no Search — may run against the index while a
// batch is in flight.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/topk.h"
#include "index/distance.h"
#include "index/search_scratch.h"

namespace dhnsw {

class ThreadPool;       // common/thread_pool.h
struct HnswNodeLocks;   // per-node neighbor-list mutexes (hnsw.cpp)

struct HnswOptions {
  uint32_t M = 16;                ///< max out-degree on layers > 0 (layer 0: 2M)
  uint32_t ef_construction = 200; ///< candidate-list width during insertion
  Metric metric = Metric::kL2;
  uint64_t seed = 0x5eedULL;      ///< level-assignment RNG seed
  /// If set, levels are clamped so the graph has at most `max_level+1`
  /// layers. d-HNSW's meta-HNSW uses max_level = 2 (three layers).
  std::optional<uint32_t> max_level = std::nullopt;
  bool extend_candidates = false;     ///< Algorithm 4's extendCandidates flag
  bool keep_pruned_connections = true;///< Algorithm 4's keepPrunedConnections
};

class HnswIndex {
 public:
  HnswIndex(uint32_t dim, HnswOptions options = {});

  uint32_t dim() const noexcept { return dim_; }
  const HnswOptions& options() const noexcept { return options_; }
  size_t size() const noexcept { return levels_.size(); }
  bool empty() const noexcept { return levels_.empty(); }

  /// Max out-degree at `layer` (2M at layer 0, M above — HNSW convention).
  uint32_t MaxDegree(uint32_t layer) const noexcept {
    return layer == 0 ? 2 * options_.M : options_.M;
  }

  /// Inserts a vector; returns its dense id. O(log n) expected.
  uint32_t Add(std::span<const float> v);

  /// Inserts a vector at a forced level (used by deserialization to rebuild a
  /// structurally identical graph, and by tests).
  uint32_t AddWithLevel(std::span<const float> v, uint32_t level);

  /// Batch-parallel bulk insertion (build path). Appends `count` vectors
  /// stored row-major in `rows` (rows.size() == count * dim). Levels are
  /// drawn from the index RNG up-front in row order, so the level SEQUENCE
  /// is bit-identical to what `count` sequential Add calls would draw; the
  /// links are then built concurrently on `pool` under per-node
  /// neighbor-list locks, so the graph STRUCTURE depends on insert
  /// interleaving (recall is statistically unchanged; bytes are not
  /// reproducible across runs). Falls back to the exact sequential Add loop
  /// — and its reproducible graphs — when `pool` is null or single-threaded,
  /// when `count` < kParallelBatchMin, or when extend_candidates is set
  /// (candidate extension reads foreign neighbor lists mid-selection, which
  /// the one-lock-at-a-time discipline does not cover).
  /// The caller must not run any other operation on the index while the
  /// batch is in flight. Returns the id of the first inserted row.
  static constexpr size_t kParallelBatchMin = 128;
  uint32_t AddBatchParallel(std::span<const float> rows, size_t count, ThreadPool* pool);

  /// Top-k approximate search with dynamic candidate list `ef`
  /// (ef is clamped up to k). Results sorted ascending by distance.
  std::vector<Scored> Search(std::span<const float> query, size_t k, uint32_t ef) const;

  /// Allocation-free form: results replace `out`'s contents, reusing its
  /// capacity. After the first few queries warmed the scratch pool and
  /// `out`, a call performs no heap allocations at all.
  void Search(std::span<const float> query, size_t k, uint32_t ef,
              std::vector<Scored>* out) const;

  /// --- structural introspection (serializer, tests, layout code) ---
  uint32_t entry_point() const noexcept { return entry_point_; }
  int32_t max_level_in_graph() const noexcept { return max_level_; }
  uint32_t level(uint32_t id) const { return levels_[id]; }
  std::span<const uint32_t> neighbors(uint32_t id, uint32_t layer) const;
  std::span<const float> vector(uint32_t id) const {
    return {vectors_.data() + static_cast<size_t>(id) * dim_, dim_};
  }
  std::span<const float> vectors() const noexcept { return vectors_; }

  /// Structural invariant check (degrees within bounds, links bidirectional
  /// where required, ids valid, entry point on top level). For tests.
  Status Validate() const;

  /// Raw adjacency mutation used by the deserializer: replaces the neighbor
  /// list wholesale. `ids` must be valid and fit the layer's degree cap.
  Status SetNeighbors(uint32_t id, uint32_t layer, std::span<const uint32_t> ids);

  /// Reconstructs a structurally *identical* graph from serialized parts —
  /// no insertion heuristics are re-run. `links[id][layer]` must satisfy the
  /// same invariants Validate() checks; on violation an error is returned.
  static Result<HnswIndex> FromRaw(uint32_t dim, HnswOptions options,
                                   std::vector<float> vectors,
                                   std::vector<uint32_t> levels,
                                   std::vector<std::vector<std::vector<uint32_t>>> links,
                                   uint32_t entry_point);

 private:
  /// Graph accessors for the shared walker (index/hnsw_walk.h): `Graph`
  /// reads the adjacency directly; `LockedGraph` copies each neighbor list
  /// under its node lock, for reads while AddBatchParallel is linking.
  struct Graph;
  struct LockedGraph;

  /// Algorithm 4: diversity-preserving neighbor selection into `*out`
  /// (sorted candidates with their distances kept, so callers can reuse the
  /// scores). `base_id` is the node the links are being chosen for;
  /// candidate extension must never reintroduce it (back-links would create
  /// self loops). `candidates` is a scratch working set and is clobbered.
  void SelectNeighbors(uint32_t base_id, const float* base,
                       std::vector<Scored>& candidates, uint32_t m,
                       uint32_t layer, SearchScratch& scratch,
                       std::vector<Scored>* out) const;

  /// --- batch-parallel insert internals (AddBatchParallel) ---
  /// All *Sync helpers read neighbor lists only as lock-held snapshots
  /// (LockedGraph, copied into scratch.nb_snapshot) and never hold two node
  /// locks at once, so the lock order is trivially acyclic.
  /// Full phase-1 + phase-2 insertion of a pre-allocated node (vector,
  /// level, and empty adjacency rows already published).
  void InsertLinkedSync(uint32_t id, uint32_t level, SearchScratch& scratch,
                        HnswNodeLocks& locks, std::mutex& top_mutex);
  /// Bidirectional back-link with overflow shrink, entirely under the
  /// neighbor's lock: the candidate set is the list as snapshotted in this
  /// lock hold, so two concurrent inserts shrinking the same node each
  /// select against the list as it actually was at their turn.
  void LinkBackSync(uint32_t id, const Scored& sel, uint32_t layer,
                    SearchScratch& scratch, HnswNodeLocks& locks);

  /// Draws a level ~ floor(-ln(U) * 1/ln(M)), clamped by options_.max_level.
  uint32_t DrawLevel();

  const float* RowPtr(uint32_t id) const noexcept {
    return vectors_.data() + static_cast<size_t>(id) * dim_;
  }

  uint32_t dim_;
  HnswOptions options_;
  PairKernel pair_;      ///< hoisted (metric, tier) pairwise kernel
  GatherKernel gather_;  ///< hoisted one-to-many kernel
  double level_lambda_;  ///< 1 / ln(M)
  Xoshiro256 rng_;

  std::vector<float> vectors_;          ///< row-major, id-indexed
  std::vector<uint32_t> levels_;        ///< top layer of each node
  /// links_[id][layer] = neighbor ids. Outer indexed by node, inner by layer
  /// (0..levels_[id]).
  std::vector<std::vector<std::vector<uint32_t>>> links_;

  uint32_t entry_point_ = 0;
  int32_t max_level_ = -1;  ///< -1 while empty

  /// Scratch pool for the allocation-free search path; grows to the peak
  /// number of concurrent searches, then stops allocating.
  mutable SearchScratchPool scratch_pool_;
};

}  // namespace dhnsw
