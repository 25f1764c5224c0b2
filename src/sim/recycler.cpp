#include "sim/recycler.hpp"

#include <cstdint>
#include <new>

namespace sim {
namespace {

constexpr std::size_t kClassBytes = alignof(std::max_align_t);
constexpr std::size_t kClasses = kRecycleMaxBytes / kClassBytes;

/// A free block holds the link to the next one.
struct FreeBlock {
  FreeBlock* next;
};

/// One thread's free lists, by size class.
struct FreeLists {
  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists();

  FreeBlock* head[kClasses] = {};
  std::uint32_t count[kClasses] = {};
};

// Set once this thread's lists are destroyed: blocks freed later (by
// other thread_local or static destructors) go straight to the global
// allocator. Trivially destructible, so it outlives the lists.
thread_local bool t_lists_gone = false;
thread_local FreeLists t_lists;

FreeLists::~FreeLists() {
  t_lists_gone = true;
  for (FreeBlock* block : head) {
    while (block != nullptr) {
      FreeBlock* next = block->next;
      ::operator delete(block);
      block = next;
    }
  }
}

/// Size class of a request of `bytes`; kClasses and above bypass.
std::size_t size_class(std::size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / kClassBytes;
}

}  // namespace

void* recycle_alloc(std::size_t bytes) {
  const std::size_t cls = size_class(bytes);
  if (cls >= kClasses) return ::operator new(bytes);
  if (!t_lists_gone) {
    FreeLists& lists = t_lists;
    if (FreeBlock* block = lists.head[cls]) {
      lists.head[cls] = block->next;
      --lists.count[cls];
      return block;
    }
  }
  // Whole class size: any thread may later hand the block out again.
  return ::operator new((cls + 1) * kClassBytes);
}

void recycle_free(void* block, std::size_t bytes) noexcept {
  const std::size_t cls = size_class(bytes);
  if (cls < kClasses && !t_lists_gone) {
    FreeLists& lists = t_lists;
    if (lists.count[cls] < kRecycleMaxBlocks) {
      lists.head[cls] = ::new (block) FreeBlock{lists.head[cls]};
      ++lists.count[cls];
      return;
    }
  }
  ::operator delete(block);
}

}  // namespace sim
