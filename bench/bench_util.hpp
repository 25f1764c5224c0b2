// Small table-printing and telemetry-flag helpers shared by the
// figure-reproduction benches.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace benchutil {

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("    reproduces: %s\n\n", paper_ref.c_str());
}

inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// A 64-bit digest as the 16 hex digits the benches print.
inline std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Machine-readable counterpart of the printed table: one JSON object per
/// row, written as an array to the `--json-out=<file>` destination.
///
///   JsonSeries series;
///   series.number("racks", std::uint64_t(4))
///       .number("goodput_gbps", g)
///       .end_row();
///   series.write_file(path);
class JsonSeries {
 public:
  JsonSeries& number(const std::string& key, double value) {
    return number_field(key, value);
  }
  /// Exact: every digit of a 64-bit count or digest.
  JsonSeries& number(const std::string& key, std::uint64_t value) {
    return number_field(key, value);
  }
  JsonSeries& string(const std::string& key, const std::string& value) {
    std::ostringstream os;
    telemetry::json_string(os, key);
    os << ": ";
    telemetry::json_string(os, value);
    fields_.push_back(os.str());
    return *this;
  }
  JsonSeries& boolean(const std::string& key, bool value) {
    std::ostringstream os;
    telemetry::json_string(os, key);
    os << ": " << (value ? "true" : "false");
    fields_.push_back(os.str());
    return *this;
  }
  void end_row() {
    std::string row = "  {";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) row += ", ";
      row += fields_[i];
    }
    row += "}";
    rows_.push_back(std::move(row));
    fields_.clear();
  }
  std::size_t row_count() const { return rows_.size(); }

  void write(std::ostream& os) const {
    os << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    os << "]\n";
  }
  bool write_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    write(os);
    return bool(os);
  }

 private:
  template <typename T>
  JsonSeries& number_field(const std::string& key, T value) {
    std::ostringstream os;
    telemetry::json_string(os, key);
    os << ": ";
    telemetry::json_number(os, value);
    fields_.push_back(os.str());
    return *this;
  }

  std::vector<std::string> fields_;
  std::vector<std::string> rows_;
};

/// Appends the standard host-performance triple — wall-clock milliseconds,
/// simulation events executed (the engine's monotonic events_executed()),
/// and events per wall-clock second — to the JSON row being built.
inline JsonSeries& perf_fields(JsonSeries& series, double wall_ms,
                               std::uint64_t sim_events) {
  const double per_sec = wall_ms > 0.0 ? double(sim_events) / (wall_ms / 1e3) : 0.0;
  return series.number("wall_ms", wall_ms)
      .number("sim_events", sim_events)
      .number("events_per_sec", per_sec);
}

/// Parses `--json-out=<file>` (or `--json-out <file>`); empty = not given.
inline std::string parse_json_out_flag(int argc, char** argv) {
  const std::string flag = "--json-out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() > flag.size() && arg.compare(0, flag.size(), flag) == 0 &&
        arg[flag.size()] == '=') {
      return arg.substr(flag.size() + 1);
    }
    if (arg == flag && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

/// `--metrics-out=<json>` / `--trace-out=<json>` destinations (empty =
/// telemetry off), accepted by every bench that calls parse_telemetry_flags.
struct TelemetryOptions {
  std::string metrics_out;
  std::string trace_out;
  bool metrics_enabled() const { return !metrics_out.empty(); }
  bool trace_enabled() const { return !trace_out.empty(); }
  bool any() const { return metrics_enabled() || trace_enabled(); }
};

/// Parses the telemetry flags (both `--flag=value` and `--flag value`
/// spellings); unrelated arguments are ignored.
inline TelemetryOptions parse_telemetry_flags(int argc, char** argv) {
  TelemetryOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return nullptr;
      if (arg.size() > n && arg[n] == '=') return arg.c_str() + n + 1;
      if (arg.size() == n && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value_of("--metrics-out")) {
      opts.metrics_out = v;
    } else if (const char* v = value_of("--trace-out")) {
      opts.trace_out = v;
    }
  }
  return opts;
}

/// Writes whichever outputs were requested and reports where they went.
inline void write_telemetry(const TelemetryOptions& opts,
                            telemetry::Telemetry& telem, sim::Time now) {
  if (opts.metrics_enabled()) {
    if (telem.metrics.write_json_file(opts.metrics_out, now)) {
      std::printf("wrote metrics to %s (%zu metrics)\n",
                  opts.metrics_out.c_str(), telem.metrics.metric_count());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opts.metrics_out.c_str());
    }
  }
  if (opts.trace_enabled()) {
    if (telem.tracer.write_json_file(opts.trace_out)) {
      std::printf("wrote trace to %s (%zu events)\n", opts.trace_out.c_str(),
                  telem.tracer.event_count());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
    }
  }
}

}  // namespace benchutil
