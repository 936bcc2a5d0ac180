// Exact min-priority queue over 64-bit keys for Dijkstra's monotone pops.
//
// A radix heap (Ahuja, Mehlhorn, Orlin, Tarjan 1990): every key above
// the last popped one sits in the bucket of the highest bit where it
// differs from that key. A pop takes the lowest non-empty bucket, makes
// its minimum the new reference and spreads the rest into lower buckets,
// so each key moves a few times in total and comparisons are rare. Keys
// at or below the last popped one (a zero-cost arc into a lower-numbered
// vertex at the same distance) go to a small binary heap that drains
// first: all of them are smaller than every bucketed key. Pops are
// therefore in exact key order, the same order any exact heap yields for
// distinct keys.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

namespace krsp::flow {

class RadixHeap {
 public:
  using Key = std::uint64_t;

  /// Empties the heap and resets the reference key; bucket storage is
  /// kept for reuse.
  void clear() {
    for (std::uint64_t mask = nonempty_; mask != 0; mask &= mask - 1)
      buckets_[static_cast<std::size_t>(std::countr_zero(mask))].clear();
    nonempty_ = 0;
    last_ = 0;
    below_.clear();
    size_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push(Key key) {
    ++size_;
    place(key);
  }

  /// Removes and returns the smallest key. Not on an empty heap.
  Key pop() {
    --size_;
    if (!below_.empty()) {
      std::pop_heap(below_.begin(), below_.end(), std::greater<>{});
      const Key key = below_.back();
      below_.pop_back();
      return key;
    }
    const auto b = static_cast<std::size_t>(std::countr_zero(nonempty_));
    std::vector<Key>& bucket = buckets_[b];
    nonempty_ &= nonempty_ - 1;
    const auto min_at = std::min_element(bucket.begin(), bucket.end());
    const Key min = *min_at;
    last_ = min;
    // Every other key of the bucket shares more high bits with `min` than
    // with the old reference, so it lands in a strictly lower bucket.
    for (auto it = bucket.begin(); it != bucket.end(); ++it)
      if (it != min_at) place(*it);
    bucket.clear();
    return min;
  }

 private:
  // Bucket i holds keys whose highest bit differing from last_ is bit i;
  // keys at or below last_ wait in the binary heap.
  void place(Key key) {
    if (key <= last_) {
      below_.push_back(key);
      std::push_heap(below_.begin(), below_.end(), std::greater<>{});
      return;
    }
    const auto b = static_cast<std::size_t>(std::bit_width(key ^ last_) - 1);
    buckets_[b].push_back(key);
    nonempty_ |= std::uint64_t{1} << b;
  }

  std::array<std::vector<Key>, 64> buckets_;
  std::uint64_t nonempty_ = 0;  // bit i set iff buckets_[i] is non-empty
  Key last_ = 0;                // the last key popped from the buckets
  std::vector<Key> below_;      // keys <= last_, as a min-heap
  std::size_t size_ = 0;
};

}  // namespace krsp::flow
