#include "telemetry/trace.hpp"

#include <algorithm>
#include <fstream>
#include <tuple>

#include "telemetry/json.hpp"

namespace telemetry {

void Tracer::set_process_name(int pid, const std::string& name) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  meta_.push_back(Event{'M', pid, 0, 0, 0, "process_name", name, 0});
}

void Tracer::set_thread_name(int pid, int tid, const std::string& name) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  meta_.push_back(Event{'M', pid, tid, 0, 0, "thread_name", name, 0});
}

void Tracer::record(Event e) {
  std::lock_guard<std::mutex> lk(mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void Tracer::complete(int pid, int tid, const std::string& name,
                      sim::Time start, sim::Time end) {
  if (!enabled_) return;
  record(Event{'X', pid, tid, start.ns(), (end - start).ns(), name, {}, 0});
}

void Tracer::instant(int pid, int tid, const std::string& name, sim::Time ts) {
  if (enabled_) record(Event{'i', pid, tid, ts.ns(), 0, name, {}, 0});
}

void Tracer::counter(int pid, const std::string& name,
                     const std::string& series, sim::Time ts, double value) {
  if (enabled_) record(Event{'C', pid, 0, ts.ns(), 0, name, series, value});
}

void Tracer::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Shard threads append in whatever order they run: a key over every
  // field makes the order a function of the simulation alone.
  std::vector<const Event*> sorted;
  for (const Event& e : events_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const Event* a, const Event* b) {
    return std::tie(a->ts_ns, a->pid, a->tid, a->phase, a->name, a->arg_key,
                    a->dur_ns, a->arg_value) <
           std::tie(b->ts_ns, b->pid, b->tid, b->phase, b->name, b->arg_key,
                    b->dur_ns, b->arg_value);
  });

  os << "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const Event& e) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\": ";
    json_string(os, e.name);
    os << ", \"ph\": \"" << e.phase << "\", \"pid\": " << e.pid;
    switch (e.phase) {
      case 'M':
        os << ", \"tid\": " << e.tid << ", \"args\": {\"name\": ";
        json_string(os, e.arg_key);
        os << "}";
        break;
      case 'X':
        os << ", \"tid\": " << e.tid << ", \"ts\": ";
        json_number(os, static_cast<double>(e.ts_ns) / 1000.0);
        os << ", \"dur\": ";
        json_number(os, static_cast<double>(e.dur_ns) / 1000.0);
        break;
      case 'i':
        os << ", \"tid\": " << e.tid << ", \"ts\": ";
        json_number(os, static_cast<double>(e.ts_ns) / 1000.0);
        os << ", \"s\": \"t\"";
        break;
      case 'C':
        os << ", \"ts\": ";
        json_number(os, static_cast<double>(e.ts_ns) / 1000.0);
        os << ", \"args\": {";
        json_string(os, e.arg_key);
        os << ": ";
        json_number(os, e.arg_value);
        os << "}";
        break;
      default:
        break;
    }
    os << "}";
  };
  for (const Event& e : meta_) emit(e);
  for (const Event* e : sorted) emit(*e);
  os << "\n], \"displayTimeUnit\": \"ns\"}\n";
}

bool Tracer::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return static_cast<bool>(out);
}

}  // namespace telemetry
