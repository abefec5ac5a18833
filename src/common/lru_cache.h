// Generic LRU cache bounded by entry count, used by ComputeNode to hold the
// most recently loaded sub-HNSW clusters (paper §3.3: "retain the most
// recently loaded c sub-HNSWs for the next batch").
//
// Eviction never has to spare an entry: the clusters a batch is traversing
// stay alive through the shared pointers the batch holds, even if the cache
// evicts them mid-batch.
#pragma once

#include <cassert>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "telemetry/metrics.h"

namespace dhnsw {

template <typename K, typename V>
class LruCache {
 public:
  /// `capacity` = max entries; 0 means caching disabled.
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  size_t size() const noexcept { return map_.size(); }

  bool Contains(const K& key) const { return map_.count(key) != 0; }

  /// Mirrors this cache's accounting into shared registry instruments: Get
  /// hits/misses bump the counters, and every size change moves the entries
  /// gauge by a delta (so several caches can share one gauge and it reads as
  /// the fleet-wide resident total). Any pointer may be null; instruments must
  /// outlive the cache (registry instruments do).
  void AttachTelemetry(telemetry::Counter* hit_counter, telemetry::Counter* miss_counter,
                       telemetry::Gauge* entries_gauge) {
    hit_counter_ = hit_counter;
    miss_counter_ = miss_counter;
    entries_gauge_ = entries_gauge;
  }

  /// Looks up and marks as most-recently-used. Returns nullptr on miss.
  V* Get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      if (miss_counter_ != nullptr) miss_counter_->Add(1);
      return nullptr;
    }
    ++hits_;
    if (hit_counter_ != nullptr) hit_counter_->Add(1);
    order_.splice(order_.begin(), order_, it->second.order_it);
    return &it->second.value;
  }

  /// Looks up without touching recency or stats (for tests/introspection).
  const V* Peek(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }

  /// Inserts or overwrites; marks most-recently-used; may evict the least
  /// recently used entry. Returns a pointer to the stored value (valid until
  /// eviction). If capacity is 0 the value is not stored and nullptr is
  /// returned (the caller keeps its own copy for the batch).
  V* Put(const K& key, V value) {
    if (capacity_ == 0) return nullptr;
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      order_.splice(order_.begin(), order_, it->second.order_it);
      return &it->second.value;
    }
    if (map_.size() == capacity_) {
      const K victim = order_.back();  // Erase frees the list node
      Erase(victim);
    }
    order_.push_front(key);
    auto [ins, fresh] = map_.emplace(key, Entry{std::move(value), order_.begin()});
    assert(fresh);
    (void)fresh;
    if (entries_gauge_ != nullptr) entries_gauge_->Add(1);
    return &ins->second.value;
  }

  bool Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.erase(it->second.order_it);
    map_.erase(it);
    if (entries_gauge_ != nullptr) entries_gauge_->Add(-1);
    return true;
  }

  void Clear() {
    if (entries_gauge_ != nullptr) entries_gauge_->Add(-static_cast<int64_t>(map_.size()));
    map_.clear();
    order_.clear();
  }

  uint64_t hits() const noexcept { return hits_; }
  uint64_t misses() const noexcept { return misses_; }
  void ResetStats() noexcept { hits_ = misses_ = 0; }

  /// Keys from most- to least-recently used (test hook).
  std::list<K> KeysByRecency() const { return order_; }

 private:
  struct Entry {
    V value;
    typename std::list<K>::iterator order_it;
  };

  size_t capacity_;
  std::list<K> order_;  // front = MRU
  std::unordered_map<K, Entry> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  telemetry::Counter* hit_counter_ = nullptr;
  telemetry::Counter* miss_counter_ = nullptr;
  telemetry::Gauge* entries_gauge_ = nullptr;
};

}  // namespace dhnsw
