// FNV-1a fingerprint — the one digest behind every replay check in the
// simulator: allreduce results, fault and recovery logs, netrpc values,
// the determinism goldens. Bytes fold in order; integers fold as their 8
// little-endian bytes, so a u64-built digest is the same on every
// platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sim {

class Digest {
 public:
  /// The canonical FNV-1a 64-bit offset basis (an empty digest's value).
  static constexpr std::uint64_t kBasis = 14695981039346656037ull;

  Digest() = default;
  /// Continues folding from an earlier digest's value.
  explicit Digest(std::uint64_t value) : h_(value) {}

  Digest& bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
    return *this;
  }
  /// `v` as 8 little-endian bytes.
  Digest& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= kPrime;
    }
    return *this;
  }
  Digest& str(std::string_view s) { return bytes(s.data(), s.size()); }

  std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h_ = kBasis;
};

}  // namespace sim
