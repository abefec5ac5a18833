#include "index/hnsw.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/thread_pool.h"
#include "index/hnsw_walk.h"

namespace dhnsw {

/// One mutex per node, guarding that node's neighbor lists (all layers).
/// Allocated per batch — the table must cover the final node count before
/// the parallel phase starts, and per-node (not striped) locking is what
/// keeps contention proportional to true neighborhood overlap.
struct HnswNodeLocks {
  explicit HnswNodeLocks(size_t n) : locks(std::make_unique<std::mutex[]>(n)) {}
  std::mutex& Of(uint32_t id) { return locks[id]; }
  std::unique_ptr<std::mutex[]> locks;
};

struct HnswIndex::Graph {
  const HnswIndex& index;
  size_t size() const noexcept { return index.links_.size(); }
  std::span<const uint32_t> neighbors(uint32_t id, uint32_t layer) const noexcept {
    return index.links_[id][layer];
  }
  const float* rows() const noexcept { return index.vectors_.data(); }
  uint32_t dim() const noexcept { return index.dim_; }
  PairKernel pair() const noexcept { return index.pair_; }
  GatherKernel gather() const noexcept { return index.gather_; }
  uint32_t entry_point() const noexcept { return index.entry_point_; }
  int32_t max_level() const noexcept { return index.max_level_; }
};

struct HnswIndex::LockedGraph : HnswIndex::Graph {
  HnswNodeLocks& locks;
  std::vector<uint32_t>& snapshot;  ///< scratch.nb_snapshot
  std::span<const uint32_t> neighbors(uint32_t id, uint32_t layer) const {
    std::lock_guard<std::mutex> lock(locks.Of(id));
    const std::vector<uint32_t>& nbs = index.links_[id][layer];
    snapshot.assign(nbs.begin(), nbs.end());
    return snapshot;
  }
};

HnswIndex::HnswIndex(uint32_t dim, HnswOptions options)
    : dim_(dim),
      options_(options),
      pair_(ActiveKernels().Pair(options.metric)),
      gather_(ActiveKernels().Gather(options.metric)),
      level_lambda_(1.0 / std::log(std::max<uint32_t>(2, options.M))),
      rng_(options.seed) {
  assert(dim > 0);
  if (options_.M < 2) options_.M = 2;
}

uint32_t HnswIndex::DrawLevel() {
  double u;
  do {
    u = rng_.NextDouble();
  } while (u <= 0.0);
  uint32_t level = static_cast<uint32_t>(-std::log(u) * level_lambda_);
  if (options_.max_level.has_value()) {
    level = std::min(level, *options_.max_level);
  }
  return level;
}

uint32_t HnswIndex::Add(std::span<const float> v) {
  return AddWithLevel(v, DrawLevel());
}

uint32_t HnswIndex::AddWithLevel(std::span<const float> v, uint32_t level) {
  assert(v.size() == dim_);
  if (options_.max_level.has_value()) level = std::min(level, *options_.max_level);

  const uint32_t id = static_cast<uint32_t>(levels_.size());
  vectors_.insert(vectors_.end(), v.begin(), v.end());
  levels_.push_back(level);
  links_.emplace_back(level + 1);

  if (id == 0) {
    entry_point_ = 0;
    max_level_ = static_cast<int32_t>(level);
    return id;
  }

  ScratchLease lease(scratch_pool_);
  SearchScratch& s = *lease;
  s.EnsureBatchCapacity(2 * options_.M + 2);

  const float* base = RowPtr(id);
  uint32_t current = entry_point_;

  // Phase 1: greedy descent through layers above the new node's top level.
  const Graph graph{*this};
  for (int32_t layer = max_level_; layer > static_cast<int32_t>(level); --layer) {
    current = hnsw_walk::GreedyClosest(graph, base, current, static_cast<uint32_t>(layer), s);
  }

  // Phase 2: on each layer the node participates in, search with
  // ef_construction, pick diverse neighbors, and link bidirectionally.
  const int32_t top = std::min<int32_t>(static_cast<int32_t>(level), max_level_);
  for (int32_t layer = top; layer >= 0; --layer) {
    const uint32_t ulayer = static_cast<uint32_t>(layer);
    hnsw_walk::SearchLayer(graph, base, current, options_.ef_construction, ulayer, s);
    const std::span<const Scored> found = s.best.SortAscending();
    s.candidates.assign(found.begin(), found.end());
    if (!s.candidates.empty()) {
      // Best candidate seeds the next (lower) layer's search.
      current = s.candidates.front().id;
    }
    const uint32_t m = options_.M;  // select M on every layer (cap applies on 0 too)
    SelectNeighbors(id, base, s.candidates, m, ulayer, s, &s.selected);

    std::vector<uint32_t>& own = links_[id][ulayer];
    own.clear();
    own.reserve(s.selected.size());
    for (const Scored& sc : s.selected) own.push_back(sc.id);

    // Back-links, shrinking the neighbor's list if it overflows. The
    // overflowed list is re-scored with ONE batched call over the
    // pre-existing neighbors; the distance to the just-linked node is reused
    // from selection (all kernels are symmetric), not recomputed.
    for (const Scored& sel : s.selected) {
      const uint32_t nb = sel.id;
      std::vector<uint32_t>& nb_links = links_[nb][ulayer];
      nb_links.push_back(id);
      const uint32_t cap = MaxDegree(ulayer);
      if (nb_links.size() > cap) {
        const float* nb_vec = RowPtr(nb);
        const size_t old_n = nb_links.size() - 1;
        s.EnsureBatchCapacity(old_n);
        gather_(nb_vec, vectors_.data(), dim_, nb_links.data(), old_n, s.dists.data());
        s.shrink_scored.clear();
        for (size_t j = 0; j < old_n; ++j) {
          s.shrink_scored.push_back({s.dists[j], nb_links[j]});
        }
        s.shrink_scored.push_back({sel.distance, id});  // cached, not recomputed
        SelectNeighbors(nb, nb_vec, s.shrink_scored, cap, ulayer, s, &s.shrink_out);
        nb_links.clear();
        for (const Scored& sc : s.shrink_out) nb_links.push_back(sc.id);
      }
    }
  }

  if (static_cast<int32_t>(level) > max_level_) {
    max_level_ = static_cast<int32_t>(level);
    entry_point_ = id;
  }
  return id;
}

uint32_t HnswIndex::AddBatchParallel(std::span<const float> rows, size_t count,
                                     ThreadPool* pool) {
  assert(rows.size() == static_cast<size_t>(count) * dim_);
  const uint32_t first_id = static_cast<uint32_t>(levels_.size());
  const bool sequential = pool == nullptr || pool->num_threads() < 2 ||
                          count < kParallelBatchMin || options_.extend_candidates;
  if (sequential) {
    // Same RNG consumption order as the parallel path's pre-draw, so the
    // level sequence is identical either way.
    for (size_t i = 0; i < count; ++i) Add(rows.subspan(i * dim_, dim_));
    return first_id;
  }

  // Pre-draw all levels in row order — bit-identical to sequential Add.
  std::vector<uint32_t> batch_levels(count);
  for (size_t i = 0; i < count; ++i) batch_levels[i] = DrawLevel();

  // Publish vectors, levels, and empty adjacency rows for the whole batch
  // before any linking: the parallel phase must never grow these outer
  // containers (inner neighbor lists are guarded by their node's lock).
  const size_t total = first_id + count;
  vectors_.insert(vectors_.end(), rows.begin(), rows.end());
  levels_.reserve(total);
  links_.reserve(total);
  for (size_t i = 0; i < count; ++i) {
    levels_.push_back(batch_levels[i]);
    links_.emplace_back(batch_levels[i] + 1);
  }

  size_t start = 0;
  if (first_id == 0) {
    // Seed node: the empty graph's entry point, placed before any
    // concurrency so every worker observes a valid entry.
    entry_point_ = 0;
    max_level_ = static_cast<int32_t>(batch_levels[0]);
    start = 1;
  }
  if (start >= count) return first_id;

  HnswNodeLocks locks(total);
  std::mutex top_mutex;
  pool->ParallelFor(count - start, [&](size_t t) {
    const uint32_t id = first_id + static_cast<uint32_t>(start + t);
    ScratchLease lease(scratch_pool_);
    SearchScratch& s = *lease;
    s.EnsureBatchCapacity(2 * options_.M + 2);
    InsertLinkedSync(id, levels_[id], s, locks, top_mutex);
  });
  return first_id;
}

void HnswIndex::InsertLinkedSync(uint32_t id, uint32_t level, SearchScratch& s,
                                 HnswNodeLocks& locks, std::mutex& top_mutex) {
  const float* base = RowPtr(id);
  uint32_t current;
  int32_t observed_top;
  {
    std::lock_guard<std::mutex> lock(top_mutex);
    current = entry_point_;
    observed_top = max_level_;
  }

  const LockedGraph graph{{*this}, locks, s.nb_snapshot};
  for (int32_t layer = observed_top; layer > static_cast<int32_t>(level); --layer) {
    current = hnsw_walk::GreedyClosest(graph, base, current, static_cast<uint32_t>(layer), s);
  }

  const int32_t top = std::min<int32_t>(static_cast<int32_t>(level), observed_top);
  for (int32_t layer = top; layer >= 0; --layer) {
    const uint32_t ulayer = static_cast<uint32_t>(layer);
    hnsw_walk::SearchLayer(graph, base, current, options_.ef_construction, ulayer, s);
    const std::span<const Scored> found = s.best.SortAscending();
    s.candidates.assign(found.begin(), found.end());
    // A concurrent insert may already have linked to this node, so the search
    // can rediscover the node itself — never self-link.
    std::erase_if(s.candidates, [id](const Scored& c) { return c.id == id; });
    if (!s.candidates.empty()) {
      current = s.candidates.front().id;
    }
    // extend_candidates is rejected up-front by AddBatchParallel, so this
    // SelectNeighbors call reads only the immutable vector rows.
    SelectNeighbors(id, base, s.candidates, options_.M, ulayer, s, &s.selected);

    {
      std::lock_guard<std::mutex> lock(locks.Of(id));
      std::vector<uint32_t>& own = links_[id][ulayer];
      // Concurrent inserts may already have back-linked into our (initially
      // empty) list; keep those edges and fill the rest from our selection.
      own.reserve(std::min<size_t>(own.size() + s.selected.size(), MaxDegree(ulayer)));
      for (const Scored& sc : s.selected) {
        if (own.size() >= MaxDegree(ulayer)) break;
        if (std::find(own.begin(), own.end(), sc.id) == own.end()) own.push_back(sc.id);
      }
    }
    // LinkBackSync's shrink path reuses the shared scratch, so walk a private
    // copy of the selected ids+distances.
    s.candidates.assign(s.selected.begin(), s.selected.end());
    for (const Scored& sel : s.candidates) {
      LinkBackSync(id, sel, ulayer, s, locks);
    }
  }

  {
    std::lock_guard<std::mutex> lock(top_mutex);
    if (static_cast<int32_t>(level) > max_level_) {
      max_level_ = static_cast<int32_t>(level);
      entry_point_ = id;
    }
  }
}

void HnswIndex::LinkBackSync(uint32_t id, const Scored& sel, uint32_t layer,
                             SearchScratch& s, HnswNodeLocks& locks) {
  const uint32_t nb = sel.id;
  std::lock_guard<std::mutex> lock(locks.Of(nb));
  std::vector<uint32_t>& nb_links = links_[nb][layer];
  // Two in-flight nodes can select each other; nb's own insert may already
  // have written this edge — never duplicate it.
  if (std::find(nb_links.begin(), nb_links.end(), id) != nb_links.end()) return;
  const uint32_t cap = MaxDegree(layer);
  if (nb_links.size() < cap) {
    nb_links.push_back(id);
    return;
  }
  // Overflow: re-select from the list as it exists NOW, under this lock
  // hold. Concurrency audit of the PR 2 distance cache: the per-link score
  // sel.distance is a pure function of two immutable vector rows, so it can
  // never go stale and is safe to reuse; what CAN go stale is the neighbor
  // LIST a concurrent insert grew between our selection and this shrink —
  // hence the full re-gather over the lock-held snapshot rather than any
  // remembered list scores.
  const float* nb_vec = RowPtr(nb);
  const size_t old_n = nb_links.size();
  s.EnsureBatchCapacity(old_n + 1);
  gather_(nb_vec, vectors_.data(), dim_, nb_links.data(), old_n, s.dists.data());
  s.shrink_scored.clear();
  for (size_t j = 0; j < old_n; ++j) {
    s.shrink_scored.push_back({s.dists[j], nb_links[j]});
  }
  s.shrink_scored.push_back({sel.distance, id});
  SelectNeighbors(nb, nb_vec, s.shrink_scored, cap, layer, s, &s.shrink_out);
  nb_links.clear();
  for (const Scored& sc : s.shrink_out) nb_links.push_back(sc.id);
}

void HnswIndex::SelectNeighbors(uint32_t base_id, const float* base,
                                std::vector<Scored>& candidates, uint32_t m,
                                uint32_t layer, SearchScratch& s,
                                std::vector<Scored>* out) const {
  // Algorithm 4 (heuristic): take candidates closest-first, but admit one only
  // if it is closer to the base than to every already-admitted neighbor —
  // this spreads links across directions instead of clustering them.
  std::sort(candidates.begin(), candidates.end());

  if (options_.extend_candidates) {
    s.visited.Reset(levels_.size());
    if (base_id < levels_.size()) s.visited.TestAndSet(base_id);  // never re-add the base
    for (const Scored& c : candidates) s.visited.TestAndSet(c.id);
    const size_t original = candidates.size();
    for (size_t i = 0; i < original; ++i) {
      for (uint32_t nb : links_[candidates[i].id][layer]) {
        if (s.visited.TestAndSet(nb)) continue;
        candidates.push_back({pair_(base, RowPtr(nb), dim_), nb});
      }
    }
    std::sort(candidates.begin(), candidates.end());
  }

  out->clear();
  s.pruned.clear();
  s.sel_ids.clear();

  for (const Scored& c : candidates) {
    if (out->size() >= m) break;
    bool diverse = true;
    if (!s.sel_ids.empty()) {
      // One batched call scores the candidate against every admitted
      // neighbor (their ids are kept contiguous for exactly this).
      gather_(RowPtr(c.id), vectors_.data(), dim_, s.sel_ids.data(),
              s.sel_ids.size(), s.dists.data());
      for (size_t j = 0; j < s.sel_ids.size(); ++j) {
        if (s.dists[j] < c.distance) {
          diverse = false;
          break;
        }
      }
    }
    if (diverse) {
      out->push_back(c);
      s.sel_ids.push_back(c.id);
    } else if (options_.keep_pruned_connections) {
      s.pruned.push_back(c);
    }
  }

  if (options_.keep_pruned_connections) {
    for (const Scored& c : s.pruned) {
      if (out->size() >= m) break;
      out->push_back(c);
    }
  }
}

std::vector<Scored> HnswIndex::Search(std::span<const float> query, size_t k,
                                      uint32_t ef) const {
  std::vector<Scored> out;
  Search(query, k, ef, &out);
  return out;
}

void HnswIndex::Search(std::span<const float> query, size_t k, uint32_t ef,
                       std::vector<Scored>* out) const {
  assert(query.size() == dim_);
  out->clear();
  if (empty() || k == 0) return;
  ScratchLease lease(scratch_pool_);
  hnsw_walk::Search(Graph{*this}, query.data(), k, ef, *lease, out);
}

std::span<const uint32_t> HnswIndex::neighbors(uint32_t id, uint32_t layer) const {
  assert(id < links_.size() && layer < links_[id].size());
  return links_[id][layer];
}

Status HnswIndex::SetNeighbors(uint32_t id, uint32_t layer, std::span<const uint32_t> ids) {
  if (id >= links_.size()) return Status::InvalidArgument("SetNeighbors: bad id");
  if (layer >= links_[id].size()) return Status::InvalidArgument("SetNeighbors: bad layer");
  if (ids.size() > MaxDegree(layer)) return Status::InvalidArgument("SetNeighbors: too many neighbors");
  for (uint32_t nb : ids) {
    if (nb >= links_.size()) return Status::InvalidArgument("SetNeighbors: bad neighbor id");
    if (levels_[nb] < layer) return Status::InvalidArgument("SetNeighbors: neighbor below layer");
  }
  links_[id][layer].assign(ids.begin(), ids.end());
  return Status::Ok();
}

Result<HnswIndex> HnswIndex::FromRaw(uint32_t dim, HnswOptions options,
                                     std::vector<float> vectors,
                                     std::vector<uint32_t> levels,
                                     std::vector<std::vector<std::vector<uint32_t>>> links,
                                     uint32_t entry_point) {
  if (dim == 0) return Status::InvalidArgument("FromRaw: dim == 0");
  if (vectors.size() != levels.size() * static_cast<size_t>(dim)) {
    return Status::InvalidArgument("FromRaw: vector payload size mismatch");
  }
  if (links.size() != levels.size()) {
    return Status::InvalidArgument("FromRaw: adjacency size mismatch");
  }

  HnswIndex index(dim, options);
  index.vectors_ = std::move(vectors);
  index.levels_ = std::move(levels);
  index.links_ = std::move(links);
  if (!index.levels_.empty()) {
    if (entry_point >= index.levels_.size()) {
      return Status::InvalidArgument("FromRaw: entry point out of range");
    }
    index.entry_point_ = entry_point;
    int32_t max_level = 0;
    for (uint32_t lvl : index.levels_) {
      max_level = std::max(max_level, static_cast<int32_t>(lvl));
    }
    index.max_level_ = max_level;
  }
  DHNSW_RETURN_IF_ERROR(index.Validate());
  return index;  // implicit move (C++20) into Result<HnswIndex>
}

Status HnswIndex::Validate() const {
  if (empty()) return Status::Ok();
  if (entry_point_ >= levels_.size()) return Status::Internal("entry point out of range");
  if (levels_[entry_point_] != static_cast<uint32_t>(max_level_)) {
    return Status::Internal("entry point is not on the top level");
  }
  for (uint32_t id = 0; id < levels_.size(); ++id) {
    if (links_[id].size() != levels_[id] + 1) {
      return Status::Internal("node layer count mismatch");
    }
    for (uint32_t layer = 0; layer <= levels_[id]; ++layer) {
      const auto& nbs = links_[id][layer];
      if (nbs.size() > MaxDegree(layer)) return Status::Internal("degree cap exceeded");
      for (uint32_t nb : nbs) {
        if (nb >= levels_.size()) return Status::Internal("neighbor id out of range");
        if (nb == id) return Status::Internal("self loop");
        if (levels_[nb] < layer) return Status::Internal("neighbor does not reach layer");
      }
    }
  }
  return Status::Ok();
}

}  // namespace dhnsw
