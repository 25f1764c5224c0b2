// Measurement plumbing shared by the workloads: wall-clock helpers,
// percentiles, process RSS, the benchmark-side span recorder, the host
// record and the one-line JSON result printed last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trioml/host.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

/// Resident set size now / at its peak (VmRSS / VmHWM), in MiB.
double rss_mb();
double peak_rss_mb();

/// FNV-1a over every worker's result gradients (bit patterns) and the
/// per-worker block counts: two runs agree on it iff their results are
/// bit-identical.
std::uint64_t results_digest(const std::vector<trioml::AllreduceResult>& r);

/// Where and how a result was measured (ROADMAP: wall time carries its
/// host). `shards` is the effective engine shard count of the timed runs.
struct Host {
  unsigned nproc = 0;
  std::string cpu;
  std::string compiler;
  std::string build_type;
  int shards = 1;
};
Host host_info();
std::string host_json(const Host& host);

/// Benchmark-side spans around the calls into the simulator's public API:
/// name, start and end (ns since the recorder was created), the parent
/// span and the iteration they belong to (-1 = none). Kept in memory and
/// written once at exit. A disabled recorder ignores everything.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its id (-1 when disabled).
  int begin(const std::string& name, int parent = -1, int iteration = -1);
  void end(int id);
  bool enabled() const { return enabled_; }
  /// Writes the host record and every span as a JSON array.
  bool write(const std::string& path, const Host& host) const;

  /// Opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const std::string& name, int parent = -1,
          int iteration = -1)
        : spans_(spans), id_(spans.begin(name, parent, iteration)) {}
    ~Scope() { spans_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Spans& spans_;
    int id_;
  };

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int iteration = -1;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The benchmark's verdict: the metrics of one mode (end-to-end untraced,
/// per-layer traced) plus the correctness tally over every checked
/// iteration.
struct Result {
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// Records one checked iteration or operation.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return attempted > 0 && failed == 0; }
  double failed_frac() const {
    return attempted == 0 ? 1.0 : double(failed) / double(attempted);
  }
  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  std::string json() const;
};

}  // namespace perfbench
