// The telemetry bundle threaded through trio::Router construction: the
// metrics registry (counters / gauges / histograms, --metrics-out) and
// the Chrome-trace tracer (--trace-out). Both are independently
// switchable and zero-overhead when off. Every component binds to one
// bundle: the caller's, or the shared disabled one from disabled().
#pragma once

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace telemetry {

struct Telemetry {
  /// Both subsystems disabled (the no-observer fast path).
  Telemetry() : metrics(false), tracer(false) {}
  Telemetry(bool metrics_on, bool trace_on)
      : metrics(metrics_on), tracer(trace_on) {}

  Registry metrics;
  Tracer tracer;
};

/// The one fully disabled bundle that unobserved routers, clusters and
/// testbeds bind to. It names, stores and records nothing, so any number
/// of components and shard threads share it.
inline Telemetry& disabled() {
  static Telemetry none;
  return none;
}

/// `*bundle`, or disabled() for a null one: how a builder whose caller's
/// bundle is optional (cluster::ClusterSpec, trioml::TestbedConfig)
/// picks the one bundle its components bind to.
inline Telemetry& or_disabled(Telemetry* bundle) {
  return bundle != nullptr ? *bundle : disabled();
}

}  // namespace telemetry
