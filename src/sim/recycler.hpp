// A thread-local recycler for per-packet memory (docs/performance.md §3
// and §7).
//
// Trio creates a thread for every packet and destroys it when the packet
// is done (paper §2.2); the simulator mirrors that with short-lived
// objects — a program per PFE packet, a Packet cell and its frame bytes
// per frame, a queue of pending actions per program. They all come from
// here: a freed block goes onto its calling thread's free list for its
// size class (16-byte steps up to kRecycleMaxBytes) and the next
// allocation of that class on the same thread takes it back, so
// steady-state packet churn never touches the global allocator. A block
// only ever serves requests of its own class, so on mixed frame sizes
// each size reuses its own blocks instead of the largest frame's.
//
// A block may be freed on another thread than the one that allocated it
// (packet cells and frames cross shard threads); it then joins the
// freeing thread's list. Each list holds at most kRecycleMaxBlocks blocks
// — one-way flows between threads cannot grow it without bound — and a
// thread's lists are released when the thread exits. Larger requests
// bypass the lists.
#pragma once

#include <cstddef>

namespace sim {

/// Largest request the free lists serve: a 64 KiB frame, 4 096 classes
/// (48 KiB of list heads and counts per thread).
inline constexpr std::size_t kRecycleMaxBytes = 64 * 1024;
/// Free blocks kept per size class and thread.
inline constexpr std::size_t kRecycleMaxBlocks = 8192;

/// A block of at least `bytes` bytes, aligned for std::max_align_t.
void* recycle_alloc(std::size_t bytes);
/// Frees a block from recycle_alloc(bytes); `bytes` must match.
void recycle_free(void* block, std::size_t bytes) noexcept;

/// Allocator over the recycler, for std::allocate_shared and containers.
template <typename T>
struct RecyclingAllocator {
  static_assert(alignof(T) <= alignof(std::max_align_t));
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(recycle_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    recycle_free(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace sim
