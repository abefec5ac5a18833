// The one HNSW graph walker: the greedy descent through the upper layers and
// the ef-bounded best-first layer search (Malkov & Yashunin, Algorithm 2).
// It is written once against a graph accessor, so the in-memory HnswIndex,
// the lock-held snapshots its parallel build reads, and a ClusterView over a
// fetched blob (serialize/cluster_blob.h) all run the same code. The same
// neighbor order and kernels then give bit-identical results.
//
// A graph accessor `G` provides:
//   size_t size() const                        node count (visited-list size)
//   std::span<const uint32_t> neighbors(uint32_t id, uint32_t layer) const
//                                              valid until the next call
//   const float* rows() const                  row-major vectors, dim() each
//   uint32_t dim() const
//   PairKernel pair() const, GatherKernel gather() const   hoisted kernels
//   uint32_t entry_point() const, int32_t max_level() const   (Search only)
//
// Neighbor lists are staged into SearchScratch and scored with one batched
// gather per expansion; the staging buffers grow to the largest list seen,
// so after warm-up a search performs no heap allocations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/topk.h"
#include "index/search_scratch.h"

namespace dhnsw::hnsw_walk {

/// Reversed comparator turning std::push_heap/pop_heap into a min-heap.
struct MinCmp {
  bool operator()(const Scored& a, const Scored& b) const noexcept { return b < a; }
};

template <typename G>
const float* Row(const G& g, uint32_t id) noexcept {
  return g.rows() + static_cast<size_t>(id) * g.dim();
}

/// Greedy walk on one layer from `entry` (an ef = 1 search), returning the
/// closest node found. Each hop scores the whole neighbor list at once.
template <typename G>
uint32_t GreedyClosest(const G& g, const float* query, uint32_t entry, uint32_t layer,
                       SearchScratch& s) {
  uint32_t current = entry;
  float current_dist = g.pair()(query, Row(g, current), g.dim());
  bool improved = true;
  while (improved) {
    improved = false;
    const std::span<const uint32_t> nbs = g.neighbors(current, layer);
    if (nbs.empty()) break;
    s.EnsureBatchCapacity(nbs.size());
    g.gather()(query, g.rows(), g.dim(), nbs.data(), nbs.size(), s.dists.data());
    for (size_t j = 0; j < nbs.size(); ++j) {
      if (s.dists[j] < current_dist) {
        current = nbs[j];
        current_dist = s.dists[j];
        improved = true;
      }
    }
  }
  return current;
}

/// Layer-restricted best-first search; leaves up to `ef` candidates in
/// s.best. Unvisited neighbors are staged into s.ids and scored together.
template <typename G>
void SearchLayer(const G& g, const float* query, uint32_t entry, uint32_t ef,
                 uint32_t layer, SearchScratch& s) {
  if (ef == 0) ef = 1;
  s.visited.Reset(g.size());
  s.frontier.clear();
  s.best.Reset(ef);

  const float entry_dist = g.pair()(query, Row(g, entry), g.dim());
  s.frontier.push_back({entry_dist, entry});
  s.best.Push(entry_dist, entry);
  s.visited.TestAndSet(entry);

  while (!s.frontier.empty()) {
    std::pop_heap(s.frontier.begin(), s.frontier.end(), MinCmp{});
    const Scored candidate = s.frontier.back();
    s.frontier.pop_back();
    if (s.best.full() && candidate.distance > s.best.worst()) break;

    const std::span<const uint32_t> nbs = g.neighbors(candidate.id, layer);
    s.EnsureBatchCapacity(nbs.size());
    size_t n = 0;
    for (uint32_t nb : nbs) {
      if (!s.visited.TestAndSet(nb)) s.ids[n++] = nb;
    }
    if (n == 0) continue;
    g.gather()(query, g.rows(), g.dim(), s.ids.data(), n, s.dists.data());
    for (size_t j = 0; j < n; ++j) {
      const float d = s.dists[j];
      if (!s.best.full() || d < s.best.worst()) {
        s.frontier.push_back({d, s.ids[j]});
        std::push_heap(s.frontier.begin(), s.frontier.end(), MinCmp{});
        s.best.Push(d, s.ids[j]);
      }
    }
  }
}

/// Top-k search: greedy descent from the entry point down to layer 1, then
/// an ef-bounded search of layer 0 (ef is clamped up to k). Results replace
/// `out`'s contents, sorted ascending by (distance, id).
template <typename G>
void Search(const G& g, const float* query, size_t k, uint32_t ef, SearchScratch& s,
            std::vector<Scored>* out) {
  out->clear();
  if (g.size() == 0 || k == 0) return;
  ef = std::max<uint32_t>(ef, static_cast<uint32_t>(k));
  uint32_t current = g.entry_point();
  for (int32_t layer = g.max_level(); layer > 0; --layer) {
    current = GreedyClosest(g, query, current, static_cast<uint32_t>(layer), s);
  }
  SearchLayer(g, query, current, ef, 0, s);
  std::span<const Scored> sorted = s.best.SortAscending();
  if (sorted.size() > k) sorted = sorted.first(k);
  out->assign(sorted.begin(), sorted.end());
}

}  // namespace dhnsw::hnsw_walk
