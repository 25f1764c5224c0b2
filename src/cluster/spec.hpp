// Declarative description of a multi-rack Trio-ML cluster (paper §4:
// "Hierarchical aggregation can be extended to work across multiple
// devices by setting the destination IP of the Result packet to the IP
// address of the next-level aggregator"): racks of workers behind leaf
// Trio routers, a spine Trio router one tier up, and per-tier link
// parameters. cluster::Cluster materializes a spec into routers, links,
// forwarding state, multicast groups and the two-level aggregation tree;
// cluster::build_aggregation_tree derives the tree alone (the
// testable construction rules, docs/cluster.md).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"
#include "trio/calibration.hpp"
#include "trioml/wire_format.hpp"

namespace cluster {

/// Link parameters for one topology tier.
struct LinkSpec {
  double gbps = 100.0;
  sim::Duration latency = sim::Duration::micros(1);
  /// i.i.d. frame loss probability injected on both directions (models
  /// transient congestion drops elsewhere in the fabric, paper §7).
  double loss = 0.0;
  std::uint64_t loss_seed = 1;
  std::size_t queue_frames = 4096;
};

struct ClusterSpec {
  int racks = 2;
  int workers_per_rack = 2;

  LinkSpec host_link;    // worker <-> leaf router (rack tier)
  LinkSpec fabric_link;  // leaf <-> spine router (inter-rack tier)

  // --- Trio-ML job parameters (mirror trioml::TestbedConfig) -------------
  std::uint8_t job_id = 1;
  std::uint16_t grads_per_packet = trioml::kMaxGradsPerPacket;
  std::uint32_t window = 4096;
  std::uint8_t block_exp_ms = 10;
  std::size_t slab_pool = 8192;
  trio::Calibration cal;

  /// Builds a standby spine router ("spine-b") wired to every leaf over
  /// its own trunk tier, running the same top-level aggregation job on
  /// the same aggregation address as the primary. Idle until
  /// Cluster::fail_over_to_backup() (usually driven by
  /// recovery::RecoveryManager) re-homes the leaves onto it —
  /// docs/recovery.md.
  bool backup_spine = false;

  /// Number of parallel simulation shards (docs/performance.md "Parallel
  /// discrete-event core"). Each router and its hosts form one simulation
  /// domain; domains are packed round-robin onto this many OS threads,
  /// synchronised conservatively with the fabric-link latency as
  /// lookahead. Results, digests and traces are bit-identical at any
  /// value. Must be >= 0; clamped to [1, routers()]. More than one shard
  /// needs a positive fabric latency (ShardedSimulator throws otherwise).
  int shards{1};

  /// When set, every router is built observed by this bundle (which must
  /// outlive the Cluster) under a per-router trio::TelemetryScope
  /// ("rackN.*" / "spine.*"), and the links register per-tier counters
  /// (docs/telemetry.md "Cluster telemetry"). When null, the cluster
  /// binds to the shared disabled bundle (telemetry::disabled()).
  telemetry::Telemetry* telemetry = nullptr;

  int total_workers() const { return racks * workers_per_rack; }
  /// Leaves, spine and standby spine: one simulation domain each, so
  /// `shards = routers()` runs one shard per router.
  int routers() const { return racks + 1 + (backup_spine ? 1 : 0); }

  /// Throws std::invalid_argument when the spec cannot materialize:
  /// workers must fit the source mask (<= 64 sources per aggregation
  /// level), the uint8 contributor counts, and the address plan of
  /// trioml/addressing.hpp.
  void validate() const;
};

}  // namespace cluster
