// Builds the paper's testbed (Fig 11) in simulation: a Trio router with
// multiple PFEs, N GPU-server workers on 100 Gbps links, the Trio-ML
// application configured on the ingress PFEs — either single-level (all
// workers on one PFE) or hierarchical (workers split across two PFEs
// feeding a top-level aggregator PFE over the fabric).
#pragma once

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "trio/router.hpp"
#include "trioml/app.hpp"
#include "trioml/host.hpp"

namespace trioml {

struct TestbedConfig {
  int num_workers = 4;
  bool hierarchical = false;  // split workers across two PFEs + top level
  double link_gbps = 100.0;
  sim::Duration link_latency = sim::Duration::micros(1);
  std::uint16_t grads_per_packet = kMaxGradsPerPacket;
  std::uint32_t window = 4096;
  std::uint8_t job_id = 1;
  std::uint8_t block_exp_ms = 10;
  std::size_t slab_pool = 8192;
  trio::Calibration cal;
  /// When set, the router is built observed by this telemetry bundle
  /// (must outlive the Testbed) and the worker links register tx/rx/drop
  /// counters; when null the testbed binds to the shared disabled bundle.
  telemetry::Telemetry* telemetry = nullptr;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  sim::Simulator& simulator() { return sim_; }
  trio::Router& router() { return *router_; }
  TrioMlWorker& worker(int i) { return *workers_.at(static_cast<std::size_t>(i)); }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// Worker i's link (a_to_b = worker->router) for loss injection etc.
  net::Link& link(int i) { return *links_.at(static_cast<std::size_t>(i)); }

  /// The aggregation app on PFE `pfe` (0/1 first level, 3 top level in
  /// hierarchical mode; 0 in single-level mode).
  TrioMlApp& app(int pfe);
  /// All aggregation apps (for stats aggregation).
  std::vector<TrioMlApp*> apps();

  /// Starts straggler detection on every aggregating PFE.
  void start_straggler_detection(int threads, sim::Duration timeout);

  const TestbedConfig& config() const { return config_; }

 private:
  TestbedConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<trio::Router> router_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<TrioMlWorker>> workers_;
  std::vector<std::unique_ptr<TrioMlApp>> apps_;  // indexed by PFE
};

}  // namespace trioml
