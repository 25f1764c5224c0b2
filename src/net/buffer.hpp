// Bounds-checked byte buffer used for all wire data in the simulator.
//
// Every read/write validates its range and throws std::out_of_range on
// violation — a simulated router should fail loudly on a malformed access,
// not corrupt neighbouring state. Multi-byte integer accessors use network
// byte order (big-endian), matching real packet headers.
//
// The bytes live in the thread-local recycler (sim/recycler.hpp): a freed
// buffer's block goes back to its 16-byte size class and the next buffer
// of that size takes it, so frames, their copies and multicast clones
// churn without touching the global allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/recycler.hpp"

namespace net {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size) : bytes_(size, 0) {}

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  void resize(std::size_t n) { bytes_.resize(n, 0); }

  std::uint8_t u8(std::size_t off) const {
    check(off, 1, "u8");
    return bytes_[off];
  }
  std::uint16_t u16(std::size_t off) const {  // big-endian
    check(off, 2, "u16");
    return static_cast<std::uint16_t>(bytes_[off] << 8 | bytes_[off + 1]);
  }
  std::uint32_t u32(std::size_t off) const {  // big-endian
    check(off, 4, "u32");
    return static_cast<std::uint32_t>(bytes_[off]) << 24 |
           static_cast<std::uint32_t>(bytes_[off + 1]) << 16 |
           static_cast<std::uint32_t>(bytes_[off + 2]) << 8 |
           static_cast<std::uint32_t>(bytes_[off + 3]);
  }
  std::uint64_t u64(std::size_t off) const {  // big-endian
    check(off, 8, "u64");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) v = v << 8 | bytes_[off + i];
    return v;
  }

  void set_u8(std::size_t off, std::uint8_t v) {
    check(off, 1, "set_u8");
    bytes_[off] = v;
  }
  void set_u16(std::size_t off, std::uint16_t v) {
    check(off, 2, "set_u16");
    bytes_[off] = static_cast<std::uint8_t>(v >> 8);
    bytes_[off + 1] = static_cast<std::uint8_t>(v);
  }
  void set_u32(std::size_t off, std::uint32_t v) {
    check(off, 4, "set_u32");
    bytes_[off] = static_cast<std::uint8_t>(v >> 24);
    bytes_[off + 1] = static_cast<std::uint8_t>(v >> 16);
    bytes_[off + 2] = static_cast<std::uint8_t>(v >> 8);
    bytes_[off + 3] = static_cast<std::uint8_t>(v);
  }
  void set_u64(std::size_t off, std::uint64_t v) {
    check(off, 8, "set_u64");
    for (std::size_t i = 0; i < 8; ++i) {
      bytes_[off + i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
    }
  }

  /// Little-endian 32-bit accessors, used for gradient payloads (hosts
  /// write gradients in native x86 order, as SwitchML/ATP do).
  std::uint32_t u32le(std::size_t off) const {
    check(off, 4, "u32le");
    return static_cast<std::uint32_t>(bytes_[off]) |
           static_cast<std::uint32_t>(bytes_[off + 1]) << 8 |
           static_cast<std::uint32_t>(bytes_[off + 2]) << 16 |
           static_cast<std::uint32_t>(bytes_[off + 3]) << 24;
  }
  void set_u32le(std::size_t off, std::uint32_t v) {
    check(off, 4, "set_u32le");
    bytes_[off] = static_cast<std::uint8_t>(v);
    bytes_[off + 1] = static_cast<std::uint8_t>(v >> 8);
    bytes_[off + 2] = static_cast<std::uint8_t>(v >> 16);
    bytes_[off + 3] = static_cast<std::uint8_t>(v >> 24);
  }

  std::span<const std::uint8_t> view(std::size_t off, std::size_t len) const {
    check(off, len, "view");
    return {bytes_.data() + off, len};
  }
  void write(std::size_t off, std::span<const std::uint8_t> src);

  /// Appends bytes to the end.
  void append(std::span<const std::uint8_t> src);

  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::span<std::uint8_t> mutable_bytes() { return bytes_; }

  bool operator==(const Buffer&) const = default;

  std::string hex() const;

  /// Throws the std::out_of_range every accessor throws when
  /// [off, off + len) does not fit in `size` bytes; `what` names the
  /// accessor in the message. For callers that check a range themselves.
  [[noreturn]] static void throw_out_of_range(const char* what,
                                              std::size_t off, std::size_t len,
                                              std::size_t size);

 private:
  // Inline, so an in-range access costs two compares; the throw is out
  // of line.
  void check(std::size_t off, std::size_t len, const char* what) const {
    if (off + len > bytes_.size() || off + len < off) [[unlikely]] {
      throw_out_of_range(what, off, len, bytes_.size());
    }
  }
  std::vector<std::uint8_t, sim::RecyclingAllocator<std::uint8_t>> bytes_;
};

}  // namespace net
