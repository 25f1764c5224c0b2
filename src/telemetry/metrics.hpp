// The telemetry metrics registry: named counters, gauges and HDR-style
// log-linear histograms, with a JSON exporter.
//
// Design constraints (ROADMAP: "the observability substrate every later
// perf PR will measure against"):
//
//  * One count per event. A Counter is the owning component's statistic:
//    inc() adds to its own total, which the component's accessor reads,
//    and a counter bound to an enabled registry also adds to the shared
//    cell. Instrumented code never checks an "is telemetry on?" flag and
//    never keeps a second copy of a count.
//
//  * A disabled registry names nothing. Names are composed by the
//    registry from a prefix and a name, and only when it is enabled, so
//    instrumenting against a disabled registry allocates nothing and a
//    disabled counter costs one add and one predicted branch.
//
//  * Stable addresses. Metric cells are heap-allocated individually and
//    never move, so bound handles stay valid for the registry's lifetime
//    (e.g. one "instructions" cell shared by every PPE of a PFE).
//
//  * Deterministic export. Metrics are kept in name order so two runs of
//    a deterministic simulation produce byte-identical JSON.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace telemetry {

/// A component's count of one kind of event. The total is the owner's:
/// inc() adds to it bound or not, and value() reads it. Bound to an
/// enabled registry (Registry::bind), the counter also adds each later
/// increment to the registry's cell. Cells are relaxed atomics: tier-level
/// cells are shared across simulation shards (sim/shard.hpp), and a plain
/// add would race. Relaxed suffices — counters carry no synchronisation,
/// and reads happen after the engine's end-of-run barrier. The total has
/// one writer, the owning component on its shard.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    total_ += n;
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return total_; }
  bool live() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  std::uint64_t total_ = 0;
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Point-in-time level (queue depth, occupancy). Handle; copy freely.
/// Atomic like Counter; add() is an atomic read-modify-write.
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) {
    if (cell_ != nullptr) cell_->fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }
  bool live() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// HDR-style log-linear histogram storage for non-negative integer values
/// (latencies in ns, depths, sizes). Values up to 2^kSubBucketBits are
/// recorded exactly; above that, buckets are spaced so the relative
/// quantization error stays below 1/kSubBuckets (~3%).
class HistogramData {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
  // Highest index for a 63-bit value: msb 62 -> bucket 58, sub 31.
  static constexpr std::size_t kNumBuckets =
      (63 - kSubBucketBits) * kSubBuckets + kSubBuckets;

  void record(std::int64_t value, std::uint64_t count = 1);
  void merge(const HistogramData& other);
  void reset();

  std::uint64_t count() const { return count_; }
  std::int64_t min() const { return count_ != 0 ? min_ : 0; }
  std::int64_t max() const { return count_ != 0 ? max_ : 0; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ != 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Nearest-rank percentile over the bucketized values, p in [0, 100].
  /// Exact for values < kSubBuckets, <=~3% low otherwise (bucket lower
  /// bound); clamped to the exact observed min/max.
  std::int64_t percentile(double p) const;

  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const std::size_t bucket = static_cast<std::size_t>(msb - kSubBucketBits + 1);
    const std::size_t sub = static_cast<std::size_t>(
        (v >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
    return bucket * kSubBuckets + sub;
  }
  /// Smallest value mapping to bucket `idx` (inverse of bucket_index).
  static std::uint64_t bucket_lower(std::size_t idx) {
    if (idx < kSubBuckets) return idx;
    const std::size_t bucket = idx / kSubBuckets;
    const std::uint64_t sub = idx % kSubBuckets;
    return (kSubBuckets + sub) << (bucket - 1);
  }

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

/// Histogram handle; copy freely. Histogram cells are NOT atomic: every
/// histogram is registered under a per-router prefix, so it has exactly
/// one writer shard (asserting this stays cheaper than making the bucket
/// array atomic). Share a histogram across shards only at 1 shard.
class Histogram {
 public:
  Histogram() = default;
  void record(std::int64_t value) {
    if (data_ != nullptr) data_->record(value);
  }
  const HistogramData* data() const { return data_; }
  bool live() const { return data_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const { return enabled_; }

  /// Binds `counter` to the cell named `prefix` followed by `name`, found
  /// or created; same name -> same cell, so independent components may
  /// share an accumulator. The counter keeps its total, and the cell
  /// receives only increments made after binding. A disabled registry
  /// unbinds the counter and composes no name.
  void bind(Counter& counter, std::string_view prefix,
            std::string_view name = {});
  /// A fresh counter (total 0) bound as by bind().
  Counter counter(std::string_view prefix, std::string_view name = {});
  /// Gauge and histogram handles for the metric named `prefix` followed
  /// by `name`; null handles, and no name, from a disabled registry.
  Gauge gauge(std::string_view prefix, std::string_view name = {});
  Histogram histogram(std::string_view prefix, std::string_view name = {});

  // --- Read-back (tests, exporters). Unknown names read as zero. --------
  std::uint64_t counter_value(const std::string& name) const;
  std::int64_t gauge_value(const std::string& name) const;
  const HistogramData* find_histogram(const std::string& name) const;

  // --- Export ------------------------------------------------------------
  /// Writes the full registry (counters, gauges, histogram summaries) as
  /// one JSON object. `now` stamps the export time.
  void write_json(std::ostream& os, sim::Time now) const;
  /// Convenience: write_json to `path`. Returns false on I/O failure.
  bool write_json_file(const std::string& path, sim::Time now) const;

  std::size_t metric_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  template <typename Cell>
  using Cells = std::map<std::string, std::unique_ptr<Cell>>;

  /// The cell named `prefix` + `name` in `cells`, created zeroed if new.
  /// Enabled registries only.
  template <typename Cell>
  Cell* cell(Cells<Cell>& cells, std::string_view prefix,
             std::string_view name);

  bool enabled_;
  // Name -> individually heap-allocated cell: stable addresses, ordered
  // iteration for deterministic export. The maps are guarded by mu_ —
  // registration and read-back may be called from shard threads (e.g. a
  // worker re-instrumented after a crash/restart fault) while other
  // shards register their own metrics. The cells themselves are not
  // guarded: counters/gauges are atomic, histograms single-writer.
  mutable std::mutex mu_;
  Cells<std::atomic<std::uint64_t>> counters_;
  Cells<std::atomic<std::int64_t>> gauges_;
  Cells<HistogramData> histograms_;
};

}  // namespace telemetry
