// Bit-granular access into a byte buffer, MSB-first within each byte —
// the packing rule for Microcode struct fields (paper §3.2: "each header
// is defined by an ordered list of field names with the corresponding
// field widths", same convention as P4).
#pragma once

#include <cstdint>
#include <span>

#include "net/buffer.hpp"

namespace microcode {

/// Reads `width` bits (1..64) starting at absolute bit offset `bit_off`.
std::uint64_t read_bits(std::span<const std::uint8_t> bytes,
                        std::size_t bit_off, unsigned width);
inline std::uint64_t read_bits(const net::Buffer& buf, std::size_t bit_off,
                               unsigned width) {
  return read_bits(buf.bytes(), bit_off, width);
}

/// Writes the low `width` bits of `value` at absolute bit offset `bit_off`.
void write_bits(std::span<std::uint8_t> bytes, std::size_t bit_off,
                unsigned width, std::uint64_t value);
inline void write_bits(net::Buffer& buf, std::size_t bit_off, unsigned width,
                       std::uint64_t value) {
  write_bits(buf.mutable_bytes(), bit_off, width, value);
}

}  // namespace microcode
