#include "net/buffer_pool.hpp"

#include <utility>

namespace net {

bool& BufferPool::alive_flag() {
  // A trivially-destructible flag outlives the pool object itself, so
  // recycle() stays callable from destructors that run after the pool's.
  static thread_local bool alive = false;
  return alive;
}

BufferPool& BufferPool::instance() {
  static thread_local BufferPool pool;
  return pool;
}

void BufferPool::recycle(std::vector<std::uint8_t>&& storage) {
  if (!alive_flag()) return;  // static teardown: let the allocator free it
  instance().release(std::move(storage));
}

Buffer BufferPool::acquire(std::size_t size) {
  if (free_.empty()) return Buffer(size);
  std::vector<std::uint8_t> storage = std::move(free_.back());
  free_.pop_back();
  storage.assign(size, 0);  // reuses capacity; matches Buffer(size) zeroing
  return Buffer(std::move(storage));
}

Buffer BufferPool::copy(const Buffer& src) {
  if (free_.empty()) return src;
  std::vector<std::uint8_t> storage = std::move(free_.back());
  free_.pop_back();
  const auto bytes = src.bytes();
  storage.assign(bytes.begin(), bytes.end());
  return Buffer(std::move(storage));
}

void BufferPool::release(std::vector<std::uint8_t>&& storage) {
  if (storage.capacity() == 0 || storage.capacity() > kMaxFrameBytes ||
      free_.size() >= kMaxEntries) {
    return;  // vector frees itself
  }
  free_.push_back(std::move(storage));
}

}  // namespace net
