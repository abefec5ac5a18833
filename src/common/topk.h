// Bounded top-k selection for nearest-neighbor search.
//
// TopKHeap keeps the k smallest (distance, id) pairs seen so far using a
// max-heap: the root is the current k-th best, so a candidate worse than the
// root is rejected in O(1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace dhnsw {

/// One scored candidate.
struct Scored {
  float distance;
  uint32_t id;

  friend bool operator<(const Scored& a, const Scored& b) noexcept {
    // Max-heap by distance; tie-break on id for determinism.
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
};

/// Fixed-capacity "k smallest distances" accumulator.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) { heap_.reserve(k + 1); }

  size_t k() const noexcept { return k_; }
  size_t size() const noexcept { return heap_.size(); }
  bool full() const noexcept { return heap_.size() >= k_; }

  /// Largest retained distance; only meaningful when !empty().
  float worst() const noexcept { return heap_.front().distance; }
  bool empty() const noexcept { return heap_.empty(); }

  /// Returns true if the candidate was retained.
  bool Push(float distance, uint32_t id) {
    if (k_ == 0) return false;
    if (heap_.size() < k_) {
      heap_.push_back({distance, id});
      std::push_heap(heap_.begin(), heap_.end());
      return true;
    }
    if (distance >= heap_.front().distance) return false;
    // Evict the root (the max) by sifting the newcomer down from it: one
    // pass instead of pop_heap + push_heap. The same element leaves, and no
    // caller sees the layout (only size, worst() and sorted output).
    const Scored item{distance, id};
    const size_t n = heap_.size();
    size_t hole = 0;
    for (size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && heap_[child] < heap_[child + 1]) ++child;
      if (!(item < heap_[child])) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = item;
    return true;
  }

  /// Would a candidate at `distance` be retained right now?
  bool WouldAccept(float distance) const noexcept {
    return heap_.size() < k_ || distance < heap_.front().distance;
  }

  /// Re-arms the heap for a new bound without releasing capacity — the
  /// allocation-free search path Reset()s a pooled heap instead of
  /// constructing a fresh one per query.
  void Reset(size_t k) {
    k_ = k;
    heap_.clear();
  }

  /// Sorts the retained entries ascending *in place* and returns a view into
  /// them. Allocation-free. The heap invariant is destroyed: call Reset()
  /// before pushing again.
  std::span<const Scored> SortAscending() {
    std::sort_heap(heap_.begin(), heap_.end());
    return heap_;
  }

  /// Drains the heap into a vector sorted by ascending distance.
  std::vector<Scored> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end());
    std::vector<Scored> out = std::move(heap_);
    heap_.clear();
    return out;
  }

  /// Non-destructive sorted snapshot.
  std::vector<Scored> Sorted() const {
    std::vector<Scored> out = heap_;
    std::sort(out.begin(), out.end());
    return out;
  }

  void Clear() noexcept { heap_.clear(); }

 private:
  size_t k_;
  std::vector<Scored> heap_;
};

}  // namespace dhnsw
