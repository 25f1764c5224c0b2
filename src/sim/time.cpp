#include "sim/time.hpp"

#include <cstdio>

namespace sim {

namespace {

std::string format_ns(std::int64_t ns) {
  char buf[64];
  if (ns < 0) return std::string(1, '-').append(format_ns(-ns));
  if (ns < 1'000) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  } else if (ns < 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

}  // namespace

std::string Duration::to_string() const { return format_ns(ns_); }
std::string Time::to_string() const { return format_ns(ns_); }

}  // namespace sim
