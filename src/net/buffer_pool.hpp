// Frame-storage recycling for the packet hot path.
//
// Steady-state packet flow (host -> link -> PFE -> link -> host) used to
// round-trip the allocator twice per packet: once for the frame's byte
// vector and once for the shared_ptr<Packet> control block. BufferPool is
// a bounded freelist of byte vectors: Packet's destructor parks its frame
// storage here and the frame builders (build_udp_frame, pooled copies)
// take it back, so a steady flow reuses the same few buffers forever.
// Acquired buffers are zero-filled, exactly like a fresh Buffer(size).
//
// The pool is per-thread (the simulator is single-threaded; separate
// threads get independent pools) and survives static destruction order:
// releases after the pool is torn down fall through to the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/buffer.hpp"

namespace net {

class BufferPool {
 public:
  /// Freelist bound: beyond this many parked vectors, releases free their
  /// storage instead (keeps a pathological burst from pinning memory).
  static constexpr std::size_t kMaxEntries = 4096;
  /// Storage larger than this is never pooled (jumbo one-offs).
  static constexpr std::size_t kMaxFrameBytes = 64 * 1024;

  BufferPool() { alive_flag() = true; }
  ~BufferPool() { alive_flag() = false; }
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The calling thread's pool.
  static BufferPool& instance();

  /// Returns storage to the calling thread's pool if it still exists;
  /// safe to call from destructors running during static teardown.
  static void recycle(std::vector<std::uint8_t>&& storage);

  /// A zero-filled buffer of `size` bytes, reusing pooled storage.
  Buffer acquire(std::size_t size);

  /// A pooled copy of `src` (same bytes, recycled storage).
  Buffer copy(const Buffer& src);

 private:
  static bool& alive_flag();
  void release(std::vector<std::uint8_t>&& storage);

  std::vector<std::vector<std::uint8_t>> free_;
};

}  // namespace net
