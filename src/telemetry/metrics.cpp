#include "telemetry/metrics.hpp"

#include <algorithm>
#include <fstream>

#include "telemetry/json.hpp"

namespace telemetry {

// ---------------------------------------------------------------------------
// HistogramData

void HistogramData::record(std::int64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::uint64_t v =
      value < 0 ? 0 : static_cast<std::uint64_t>(value);  // clamp negatives
  buckets_[bucket_index(v)] += count;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void HistogramData::reset() {
  buckets_.fill(0);
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0.0;
}

std::int64_t HistogramData::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest value with rank >= ceil(p/100 * n).
  const double exact = p / 100.0 * static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const auto v = static_cast<std::int64_t>(bucket_lower(i));
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

// ---------------------------------------------------------------------------
// Registry

template <typename Cell>
Cell* Registry::cell(Cells<Cell>& cells, std::string_view prefix,
                     std::string_view name) {
  std::string key;
  key.reserve(prefix.size() + name.size());
  key.append(prefix).append(name);
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = cells[std::move(key)];
  if (!slot) slot = std::make_unique<Cell>();
  return slot.get();
}

void Registry::bind(Counter& counter, std::string_view prefix,
                    std::string_view name) {
  counter.cell_ = enabled_ ? cell(counters_, prefix, name) : nullptr;
}

Counter Registry::counter(std::string_view prefix, std::string_view name) {
  Counter c;
  bind(c, prefix, name);
  return c;
}

Gauge Registry::gauge(std::string_view prefix, std::string_view name) {
  return enabled_ ? Gauge{cell(gauges_, prefix, name)} : Gauge{};
}

Histogram Registry::histogram(std::string_view prefix, std::string_view name) {
  return enabled_ ? Histogram{cell(histograms_, prefix, name)} : Histogram{};
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second->load(std::memory_order_relaxed)
                               : 0;
}

std::int64_t Registry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->load(std::memory_order_relaxed)
                             : 0;
}

const HistogramData* Registry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

void Registry::write_json(std::ostream& os, sim::Time now) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\n  \"sim_time_ns\": " << now.ns() << ",\n";
  os << "  \"enabled\": " << (enabled_ ? "true" : "false") << ",\n";

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(os, name);
    os << ": " << cell->load(std::memory_order_relaxed);
  }
  os << (first ? "}" : "\n  }") << ",\n";

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(os, name);
    os << ": " << cell->load(std::memory_order_relaxed);
  }
  os << (first ? "}" : "\n  }") << ",\n";

  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, data] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(os, name);
    os << ": {\"count\": " << data->count() << ", \"min\": " << data->min()
       << ", \"max\": " << data->max() << ", \"mean\": ";
    json_number(os, data->mean());
    os << ", \"sum\": ";
    json_number(os, data->sum());
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
      char label[16];
      std::snprintf(label, sizeof(label), "p%g", p);
      os << ", \"" << label << "\": " << data->percentile(p);
    }
    os << "}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

bool Registry::write_json_file(const std::string& path, sim::Time now) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out, now);
  return static_cast<bool>(out);
}

}  // namespace telemetry
