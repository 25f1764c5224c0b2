#include "microcode/bitfield.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace microcode {

namespace {

// A field of up to 64 bits at any bit offset spans at most 9 bytes, so the
// bytes it touches fit in one 128-bit word, first byte most significant.
using Window = unsigned __int128;

struct Field {
  std::size_t first;  // byte index of the field's first bit
  std::size_t bytes;  // bytes the field touches, 1..9
  unsigned tail;      // bits after the field in its last byte
};

/// Locates a `width`-bit field at `bit_off` and checks, once, that every
/// byte it touches is inside `size`. Out of range throws what Buffer::u8
/// throws for the field's first out-of-range byte.
Field locate(std::size_t size, std::size_t bit_off, unsigned width) {
  const std::size_t first = bit_off / 8;
  const auto lead = static_cast<unsigned>(bit_off % 8);
  const unsigned bytes = (lead + width + 7) / 8;
  if (first >= size || bytes > size - first) {
    net::Buffer::throw_out_of_range("u8", std::max(first, size), 1, size);
  }
  return {first, bytes, bytes * 8 - lead - width};
}

Window load(std::span<const std::uint8_t> bytes) {
  Window w = 0;
  for (const std::uint8_t b : bytes) w = w << 8 | b;
  return w;
}

std::uint64_t low_bits(unsigned width) {
  return width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

}  // namespace

std::uint64_t read_bits(std::span<const std::uint8_t> bytes,
                        std::size_t bit_off, unsigned width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("read_bits: width must be 1..64");
  }
  const Field f = locate(bytes.size(), bit_off, width);
  const Window w = load(bytes.subspan(f.first, f.bytes));
  return static_cast<std::uint64_t>(w >> f.tail) & low_bits(width);
}

void write_bits(std::span<std::uint8_t> bytes, std::size_t bit_off,
                unsigned width, std::uint64_t value) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("write_bits: width must be 1..64");
  }
  const Field f = locate(bytes.size(), bit_off, width);
  const std::span<std::uint8_t> field = bytes.subspan(f.first, f.bytes);
  const Window mask = Window{low_bits(width)} << f.tail;
  Window w = load(field);
  w = (w & ~mask) | ((Window{value} << f.tail) & mask);
  for (std::size_t i = field.size(); i-- > 0; w >>= 8) {
    field[i] = static_cast<std::uint8_t>(w);
  }
}

}  // namespace microcode
