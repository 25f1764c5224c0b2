#include "report.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "telemetry/json.hpp"

namespace perfbench {
namespace {

/// A "Key:   value" line of a /proc file, or "" when absent.
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const std::size_t colon = line.find(':', key.size());
    if (colon == std::string::npos) continue;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

double status_kb_as_mb(const std::string& key) {
  const std::string v = proc_field("/proc/self/status", key);
  return v.empty() ? 0.0 : std::stod(v) / 1024.0;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * double(samples.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - double(lo));
}

double rss_mb() { return status_kb_as_mb("VmRSS"); }
double peak_rss_mb() { return status_kb_as_mb("VmHWM"); }

std::uint64_t results_digest(const std::vector<trioml::AllreduceResult>& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto eat = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const trioml::AllreduceResult& res : r) {
    const std::uint64_t meta[3] = {res.grads.size(), res.blocks,
                                   res.degraded_blocks + res.abandoned_blocks};
    eat(meta, sizeof meta);
    if (!res.grads.empty()) eat(res.grads.data(), res.grads.size() * 4);
  }
  return h;
}

Host host_info() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu = proc_field("/proc/cpuinfo", "model name");
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

std::string host_json(const Host& host) {
  std::ostringstream os;
  os << "{\"nproc\": " << host.nproc << ", \"cpu\": ";
  telemetry::json_string(os, host.cpu);
  os << ", \"compiler\": ";
  telemetry::json_string(os, host.compiler);
  os << ", \"build_type\": ";
  telemetry::json_string(os, host.build_type);
  os << ", \"shards\": " << host.shards << "}";
  return os.str();
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Spans::begin(const std::string& name, int parent, int iteration) {
  if (!enabled_) return -1;
  spans_.push_back({name, now_ns(), -1, parent, iteration});
  return int(spans_.size() - 1);
}

void Spans::end(int id) {
  if (id < 0 || std::size_t(id) >= spans_.size()) return;
  spans_[std::size_t(id)].end_ns = now_ns();
}

bool Spans::write(const std::string& path, const Host& host) const {
  benchutil::JsonSeries series;
  series.string("host", host.cpu)
      .number("nproc", std::uint64_t(host.nproc))
      .string("compiler", host.compiler)
      .string("build_type", host.build_type)
      .number("shards", std::uint64_t(host.shards))
      .end_row();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    series.number("id", std::uint64_t(i))
        .string("name", s.name)
        .number("start_ns", double(s.start_ns))
        .number("end_ns", double(s.end_ns))
        .number("parent", double(s.parent))
        .number("iteration", double(s.iteration))
        .end_row();
  }
  return series.write_file(path);
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    telemetry::json_string(os, metrics[i].name);
    os << ": {\"value\": ";
    telemetry::json_number(os, metrics[i].value);
    os << ", \"unit\": ";
    telemetry::json_string(os, metrics[i].unit);
    os << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
