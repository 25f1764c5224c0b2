// A FIFO queue over a power-of-two ring that doubles when full and never
// shrinks. Once a queue has reached its working depth, pushes and pops
// never touch the allocator. std::deque, by contrast, allocates and frees
// a node every few hundred bytes of traffic.
//
// The first block holds four entries and rings live in the thread-local
// recycler (sim/recycler.hpp), so a short-lived queue costs no allocation
// once warm; rings above kRecycleMaxBytes come from the global allocator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/recycler.hpp"

namespace sim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  T& front() { return ring_[head_]; }

  void push_back(T value) { emplace_back() = std::move(value); }

  /// Appends a slot holding T{} and returns it for the caller to fill.
  T& emplace_back() {
    if (size_ == ring_.size()) grow();
    return ring_[(head_ + size_++) & (ring_.size() - 1)];
  }

  /// Removes and returns the front element; its slot is reset to T{} so
  /// the queue holds no resources of popped elements.
  T pop_front() {
    T value = std::move(ring_[head_]);
    ring_[head_] = T{};
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return value;
  }

 private:
  static constexpr std::size_t kMinCapacity = 4;
  using Ring = std::vector<T, RecyclingAllocator<T>>;

  void grow() {
    Ring next(std::max(kMinCapacity, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(next);
    head_ = 0;
  }

  Ring ring_;  // capacity is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sim
