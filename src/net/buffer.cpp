#include "net/buffer.hpp"

#include <cstdio>
#include <stdexcept>

namespace net {

void Buffer::throw_out_of_range(const char* what, std::size_t off,
                                std::size_t len, std::size_t size) {
  throw std::out_of_range(std::string("Buffer::") + what + ": [" +
                          std::to_string(off) + ", " +
                          std::to_string(off + len) + ") exceeds size " +
                          std::to_string(size));
}

void Buffer::write(std::size_t off, std::span<const std::uint8_t> src) {
  check(off, src.size(), "write");
  std::copy(src.begin(), src.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(off));
}

void Buffer::append(std::span<const std::uint8_t> src) {
  bytes_.insert(bytes_.end(), src.begin(), src.end());
}

std::string Buffer::hex() const {
  std::string out;
  out.reserve(bytes_.size() * 2);
  char tmp[3];
  for (std::uint8_t b : bytes_) {
    std::snprintf(tmp, sizeof(tmp), "%02x", b);
    out += tmp;
  }
  return out;
}

}  // namespace net
