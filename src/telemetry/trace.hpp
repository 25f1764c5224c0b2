// Span/instant/counter tracer exporting Chrome trace_event JSON
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU —
// the format read by chrome://tracing and Perfetto).
//
// Mapping of the simulated chipset onto the trace model (docs/telemetry.md):
// one trace *process* per PFE, one *thread* row per PPE thread slot, plus
// extra rows for the hardware blocks (SMS banks, dispatch, reorder,
// crossbar, MQSS). Simulated nanoseconds are exported as fractional
// microseconds, the unit the viewers expect.
//
// Like the metrics registry, the tracer is zero-overhead when disabled:
// instrumented code keeps a Tracer* that is null when tracing is off, so
// the hot path pays one null check and no argument marshalling.
// Shard threads record under one mutex and export sorts the events, so
// the file is the same at any shard count (docs/telemetry.md).
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace telemetry {

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Safety valve for long runs: events beyond the cap are counted and
  /// dropped (metadata is exempt). Default 4M events (~500 MB JSON). At
  /// more than one shard, thread timing picks which events are kept, not
  /// how many. Read the counts between runs.
  void set_max_events(std::size_t n) { max_events_ = n; }
  std::uint64_t dropped_events() const { return dropped_; }
  std::size_t event_count() const { return events_.size(); }

  // --- Metadata -----------------------------------------------------------
  void set_process_name(int pid, const std::string& name);
  void set_thread_name(int pid, int tid, const std::string& name);

  // --- Events -------------------------------------------------------------
  /// A span on row (pid, tid) covering [start, end] ("ph":"X").
  void complete(int pid, int tid, const std::string& name, sim::Time start,
                sim::Time end);
  /// A point event on row (pid, tid) ("ph":"i", thread scope).
  void instant(int pid, int tid, const std::string& name, sim::Time ts);
  /// A sampled counter track ("ph":"C"): `series` is the plotted line's
  /// label within counter `name`.
  void counter(int pid, const std::string& name, const std::string& series,
               sim::Time ts, double value);

  // --- Export -------------------------------------------------------------
  /// Writes {"traceEvents": [...]} — the JSON-object flavour of the
  /// format, which both chrome://tracing and Perfetto load directly.
  /// Metadata comes first in the order it was set, then the events sorted
  /// by (ts, pid, tid, phase, name, series, dur, value).
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'X', 'i', 'C', 'M'
    int pid;
    int tid;
    std::int64_t ts_ns;
    std::int64_t dur_ns;   // X only
    std::string name;
    std::string arg_key;   // C: series label; M: metadata value
    double arg_value = 0;  // C only
  };

  void record(Event e);  // appends under mu_, unless at the cap

  bool enabled_;
  std::size_t max_events_ = 4'000'000;
  mutable std::mutex mu_;  // guards dropped_, events_ and meta_
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::vector<Event> meta_;
};

}  // namespace telemetry
