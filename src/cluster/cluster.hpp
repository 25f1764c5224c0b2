// Materializes a ClusterSpec into a running multi-rack testbed: one leaf
// Trio router per rack with its workers on host links, a spine Trio
// router one tier up on fabric links, IP routes, the final-result
// multicast group, and Trio-ML jobs forming the two-level aggregation
// tree of cluster/tree.hpp. The runtime API mirrors trioml::Testbed
// (per-worker / per-link accessors, straggler detection across every
// aggregating router) so Testbed workloads run unmodified on N racks.
#pragma once

#include <memory>
#include <vector>

#include "cluster/spec.hpp"
#include "cluster/tree.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "trio/router.hpp"
#include "trioml/app.hpp"
#include "trioml/host.hpp"

namespace cluster {

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  /// Shard 0's simulator. run()/run_until() on it drive the whole engine
  /// (all shards), so single-simulator call sites work unmodified.
  sim::Simulator& simulator() { return engine_.shard(0); }
  /// The parallel discrete-event engine executing this cluster
  /// (docs/performance.md). One simulation domain per router: leaf r is
  /// domain r, the spine is domain `racks`, the standby spine (when
  /// built) domain `racks + 1`; workers and host links live in their
  /// leaf's domain.
  sim::ShardedSimulator& engine() { return engine_; }
  /// Shards actually running (after clamping spec.shards).
  int num_shards() const { return int(engine_.num_shards()); }
  const ClusterSpec& spec() const { return spec_; }
  const AggregationTree& tree() const { return tree_; }
  /// The bundle every router, link, worker and control-plane component
  /// of the cluster binds to: spec.telemetry, or the shared disabled
  /// bundle when that is null.
  telemetry::Telemetry& telemetry() { return telem_; }

  int num_racks() const { return spec_.racks; }
  int workers_per_rack() const { return spec_.workers_per_rack; }
  int num_workers() const { return spec_.total_workers(); }

  // --- Topology accessors (workers are rack-major: global = rack*W+i) ----
  trio::Router& leaf(int rack) { return *leaves_.at(std::size_t(rack)); }
  trio::Router& spine() { return *spine_; }
  bool has_backup_spine() const { return backup_spine_ != nullptr; }
  /// The standby spine (spec.backup_spine; throws when absent).
  trio::Router& backup_spine() { return *backup_spine_; }
  trioml::TrioMlWorker& worker(int global) {
    return *workers_.at(std::size_t(global));
  }
  trioml::TrioMlWorker& worker(int rack, int local) {
    return worker(rack * spec_.workers_per_rack + local);
  }
  /// Worker `global`'s host link (a_to_b = worker -> leaf), for loss
  /// injection and telemetry — mirrors Testbed::link.
  net::Link& link(int global) { return *host_links_.at(std::size_t(global)); }
  /// Rack `rack`'s trunk (a_to_b = leaf -> spine).
  net::Link& fabric_link(int rack) {
    return *fabric_links_.at(std::size_t(rack));
  }

  trioml::TrioMlApp& leaf_app(int rack) {
    return *leaf_apps_.at(std::size_t(rack));
  }
  trioml::TrioMlApp& spine_app() { return *spine_app_; }
  trioml::TrioMlApp& backup_spine_app() { return *backup_spine_app_; }
  /// Rack `rack`'s standby trunk (a_to_b = leaf -> backup spine).
  net::Link& backup_fabric_link(int rack) {
    return *backup_fabric_links_.at(std::size_t(rack));
  }
  /// Every aggregation app, leaves first then the spine(s) (stats
  /// rollups); the backup spine's app is last when one exists.
  std::vector<trioml::TrioMlApp*> apps();

  // --- Aggregation-tree plumbing (src/jobs/ instantiates per-tenant
  // jobs over the same physical tree; docs/jobs.md) -----------------------
  /// Leaf `rack`'s nexthop onto the primary / standby spine trunk.
  std::uint32_t to_spine_nexthop(int rack) const {
    return to_spine_nh_.at(std::size_t(rack));
  }
  std::uint32_t to_backup_spine_nexthop(int rack) const {
    return to_backup_spine_nh_.at(std::size_t(rack));
  }
  /// The spine's (and standby spine's) result-multicast group nexthop.
  std::uint32_t spine_result_nexthop() const { return spine_group_nh_; }
  std::uint32_t backup_spine_result_nexthop() const {
    return backup_spine_group_nh_;
  }
  /// Job `job_id` on leaf `node`: the rack's workers in, partial Results
  /// up the trunk the leaves are homed on, stamped with the rack's uplink
  /// source id. The cluster's own job caps blocks at 4095, a tenant at
  /// its TenantSpec::block_cnt_max.
  trioml::TrioMlApp::JobSetup leaf_job(const RackNode& node,
                                       std::uint8_t job_id,
                                       std::uint16_t block_cnt_max) const;
  /// Job `job_id` on the primary or standby spine: one source per rack,
  /// the final Result multicast back down to every worker.
  trioml::TrioMlApp::JobSetup spine_job(std::uint8_t job_id,
                                        std::uint16_t block_cnt_max,
                                        bool backup) const;

  // --- Failover (src/recovery/, docs/recovery.md) ------------------------
  /// Re-homes the aggregation tree's top level onto the standby spine:
  /// every leaf's spine route and its job record's egress nexthop are
  /// rewritten to the backup trunk. In-flight blocks on the leaves are
  /// untouched — even their Results go to the backup, because the job
  /// record is consulted at result-emission time. Requires
  /// spec.backup_spine; idempotent.
  void fail_over_to_backup();
  /// Points the leaves back at the primary spine (post-revival rejoin).
  void restore_primary_spine();
  /// True while the leaves are homed on the backup spine.
  bool on_backup_spine() const { return on_backup_spine_; }

  /// Starts straggler detection on every aggregating router — each leaf
  /// and the spine run their own timer-thread scans (paper §5).
  void start_straggler_detection(int threads, sim::Duration timeout);
  void stop_straggler_detection();

  // --- Per-rack trace rows (docs/telemetry.md "Cluster telemetry") -------
  /// Emits one sample of the per-rack counter tracks (uplink tx bytes /
  /// drops, leaf blocks completed) plus the spine row. No-op untraced.
  void sample_trace_counters();
  /// Recurring sampling on the simulated clock, as an engine global
  /// action. The recurring action keeps the engine pending — pair with
  /// run_until() + stop_trace_sampling().
  void start_trace_sampling(sim::Duration period);
  void stop_trace_sampling();

  /// Trace pids: router r's PFEs live at r*kPidStride + pfe + 1, the
  /// spine's at racks*kPidStride + pfe + 1 (trio::TelemetryScope), and
  /// the per-rack summary rows at kSummaryPidBase + rack (the spine
  /// summary row is kSummaryPidBase + racks).
  static constexpr int kPidStride = 32;
  static constexpr int kSummaryPidBase = 100'000;

 private:
  /// Routes, result group and aggregation app of the primary or standby
  /// spine.
  void build_spine(bool backup);
  /// Wires rack `r`'s trunk to the primary or standby spine and returns
  /// the leaf's nexthop onto it.
  std::uint32_t build_trunk(trio::Router& leaf, int r, bool backup);
  void build_rack(const RackNode& node);
  void rehome_spine_tier(bool to_backup);
  int trunk_port() const { return spec_.workers_per_rack; }
  int backup_trunk_port() const { return spec_.workers_per_rack + 1; }

  std::uint32_t spine_domain() const { return std::uint32_t(spec_.racks); }
  std::uint32_t backup_spine_domain() const {
    return std::uint32_t(spec_.racks + 1);
  }
  /// The simulator executing domain `d`'s events.
  sim::Simulator& dsim(std::uint32_t d) { return engine_.domain_sim(d); }

  ClusterSpec spec_;
  telemetry::Telemetry& telem_;
  AggregationTree tree_;
  sim::ShardedSimulator engine_;
  std::unique_ptr<trio::Router> spine_;
  std::unique_ptr<trio::Router> backup_spine_;
  std::vector<std::unique_ptr<trio::Router>> leaves_;
  std::vector<std::unique_ptr<net::Link>> fabric_links_;   // by rack
  std::vector<std::unique_ptr<net::Link>> backup_fabric_links_;  // by rack
  std::vector<std::unique_ptr<net::Link>> host_links_;     // by global worker
  std::vector<std::unique_ptr<trioml::TrioMlWorker>> workers_;
  std::vector<std::unique_ptr<trioml::TrioMlApp>> leaf_apps_;
  std::unique_ptr<trioml::TrioMlApp> spine_app_;
  std::unique_ptr<trioml::TrioMlApp> backup_spine_app_;
  std::uint32_t spine_group_nh_ = 0;
  std::uint32_t backup_spine_group_nh_ = 0;
  std::vector<std::uint32_t> to_spine_nh_;         // per rack
  std::vector<std::uint32_t> to_backup_spine_nh_;  // per rack
  bool on_backup_spine_ = false;

  bool trace_sampling_ = false;
  sim::Duration trace_period_ = sim::Duration::zero();
  /// Bumped by stop_trace_sampling(): a sample scheduled under an older
  /// epoch no-ops.
  std::uint64_t trace_epoch_ = 0;
};

}  // namespace cluster
