// RecoveryManager: the self-healing control plane for Cluster allreduce
// jobs (docs/recovery.md). Closes the detect -> failover -> recover loop:
//
//   * detect   — a HeartbeatMonitor watches the spine and every leaf via
//                timer-thread heartbeats + phi accrual;
//   * failover — a dead spine triggers Cluster::fail_over_to_backup():
//                every leaf's spine route and job-record egress nexthop
//                re-home onto the standby spine (spec.backup_spine), no
//                job restart;
//   * recover  — the dead router's aggregation buckets were invalidated
//                by generation bump (power-loss model); contributions
//                absorbed into them are re-contributed by the workers'
//                retransmit path and re-aggregated on the standby, so the
//                allreduce result stays bit-identical to the fault-free
//                run. A dead *leaf* detaches its whole subtree instead —
//                workers behind it are single-homed, so the spine's aging
//                path degrades results rather than re-homing.
//
// Every transition is appended to a deterministic log; digest() folds the
// monitor's liveness log and the manager's action log into one FNV-1a
// replay fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "recovery/heartbeat.hpp"

namespace recovery {

struct RecoveryConfig {
  HeartbeatConfig heartbeat;
  /// Restore the primary spine when its heartbeats resume. Off by
  /// default: rejoin mid-allreduce is safe (the primary's state was
  /// invalidated) but usually wanted only between jobs.
  bool auto_rejoin = false;
};

class RecoveryManager {
 public:
  RecoveryManager(cluster::Cluster& cluster, RecoveryConfig config = {});

  /// Starts liveness detection (heartbeat groups + phi checks) at any
  /// shard count. The checks keep the engine from draining — pair with
  /// run_until() + stop(), like trace sampling.
  void start();
  void stop();

  HeartbeatMonitor& monitor() { return monitor_; }
  const HeartbeatMonitor& monitor() const { return monitor_; }

  bool spine_dead() const { return monitor_.dead(spine_idx_); }
  bool failed_over() const { return cluster_.on_backup_spine(); }
  /// True while any watched router is declared dead — the "recovery
  /// epoch" predicate the fluid fidelity boundary polls (docs/fluid.md):
  /// re-homing, retransmit storms and re-aggregation all need packet
  /// fidelity, so fluid flows re-materialise for the whole epoch.
  bool recovery_epoch_open() const {
    for (int i = 0; i < monitor_.watched(); ++i) {
      if (monitor_.dead(i)) return true;
    }
    return false;
  }

  std::uint64_t failovers() const { return failovers_.value(); }
  std::uint64_t rejoins() const { return rejoins_.value(); }
  std::uint64_t subtree_detachments() const {
    return subtree_detachments_.value();
  }
  /// Blocks invalidated by this manager's generation bumps (on failover
  /// and rejoin; the fault injector's kill-time bump counts separately).
  std::uint64_t blocks_invalidated() const {
    return blocks_invalidated_.value();
  }

  /// Recovery-time instrumentation for bench/fig_failover.
  sim::Time last_death_at() const { return last_death_at_; }
  sim::Time last_failover_at() const { return last_failover_at_; }

  struct LogEntry {
    sim::Time at;
    std::string what;
  };
  const std::vector<LogEntry>& log() const { return log_; }
  /// Combined replay fingerprint: the monitor's liveness log folded with
  /// the manager's failover/rejoin actions.
  std::uint64_t digest() const;

 private:
  void on_transition(int idx, bool dead, sim::Time at);
  void record(const std::string& what, bool recovery, sim::Time at);

  cluster::Cluster& cluster_;
  RecoveryConfig config_;
  HeartbeatMonitor monitor_;
  int spine_idx_ = -1;
  std::vector<int> leaf_idx_;  // watch index per rack

  std::vector<LogEntry> log_;
  telemetry::Counter failovers_;
  telemetry::Counter rejoins_;
  telemetry::Counter subtree_detachments_;
  telemetry::Counter blocks_invalidated_;
  sim::Time last_death_at_;
  sim::Time last_failover_at_;
};

}  // namespace recovery
