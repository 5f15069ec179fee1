// Bounded least-recently-used map for response memoization.
//
// The service facade memoizes whole responses keyed by request; a
// long-lived server must not let those maps grow without bound under
// heavy traffic. This is the smallest useful LRU: a recency list plus a
// key index, O(log n) lookup, O(1) touch/evict. NOT internally
// synchronized — callers (api::Service's per-handle caches) already
// serialize cache access under their own mutex.
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <utility>

namespace symref::support {

template <typename Key, typename Value>
class LruCache {
 public:
  /// At most `capacity` entries; 0 holds none.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Value for `key`, or nullptr. A hit becomes the most recently used
  /// entry. The pointer is invalidated by the next insert().
  [[nodiscard]] Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Insert or overwrite; the entry becomes most recently used. Returns the
  /// number of entries evicted to respect the capacity (0 or 1). With
  /// capacity 0 nothing is stored and nothing evicted.
  std::size_t insert(Key key, Value value) {
    if (capacity_ == 0) return 0;
    if (Value* existing = find(key)) {
      *existing = std::move(value);
      return 0;
    }
    items_.emplace_front(std::move(key), std::move(value));
    index_.emplace(items_.front().first, items_.begin());
    if (items_.size() <= capacity_) return 0;
    index_.erase(items_.back().first);
    items_.pop_back();
    return 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<Key, Value>> items_;  // front = most recently used
  std::map<Key, typename std::list<std::pair<Key, Value>>::iterator> index_;
};

}  // namespace symref::support
