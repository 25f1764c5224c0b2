#include "recovery/recovery.hpp"

#include "sim/digest.hpp"

namespace recovery {

RecoveryManager::RecoveryManager(cluster::Cluster& cluster,
                                 RecoveryConfig config)
    : cluster_(cluster),
      config_(config),
      monitor_(cluster.engine(), cluster.telemetry(), config.heartbeat) {
  telemetry::Registry& metrics = cluster_.telemetry().metrics;
  metrics.bind(failovers_, "recovery.failovers");
  metrics.bind(rejoins_, "recovery.rejoins");
  metrics.bind(subtree_detachments_, "recovery.subtree_detachments");
  metrics.bind(blocks_invalidated_, "recovery.blocks_invalidated");
  spine_idx_ = monitor_.watch("spine", cluster_.spine());
  for (int r = 0; r < cluster_.num_racks(); ++r) {
    leaf_idx_.push_back(
        monitor_.watch("rack" + std::to_string(r), cluster_.leaf(r)));
  }
  // The backup spine is deliberately unwatched: it is the failover
  // *target*, and losing both spines has no further re-homing to do.
  // Transitions fire from the phi check, a global action, so failover and
  // rejoin below rewrite every leaf with all shards parked.
  monitor_.set_transition_hook([this](int idx, bool dead, sim::Time at) {
    on_transition(idx, dead, at);
  });
}

void RecoveryManager::start() { monitor_.start(); }
void RecoveryManager::stop() { monitor_.stop(); }

void RecoveryManager::on_transition(int idx, bool dead, sim::Time at) {
  if (idx == spine_idx_) {
    if (dead) {
      last_death_at_ = at;
      if (cluster_.has_backup_spine() && !cluster_.on_backup_spine()) {
        // Belt and braces: the injector's `kill` already bumped the
        // spine's generation at power-loss time; a second bump on an
        // empty table is a counted no-op, but covers schedules that
        // kill without the injector (direct Router::kill()).
        const std::size_t inv =
            cluster_.spine_app().invalidate_active_blocks();
        blocks_invalidated_.inc(inv);
        cluster_.fail_over_to_backup();
        failovers_.inc();
        last_failover_at_ = at;
        record("failover spine->spine-b (" + std::to_string(inv) +
                   " blocks invalidated)",
               /*recovery=*/true, at);
      } else {
        record("spine dead (no failover target)", /*recovery=*/false, at);
      }
    } else if (config_.auto_rejoin && cluster_.has_backup_spine() &&
               cluster_.on_backup_spine()) {
      // The primary rebooted empty-handed; anything it absorbed before
      // dying was invalidated, so rejoin is just pointing the leaves back.
      const std::size_t inv = cluster_.spine_app().invalidate_active_blocks();
      blocks_invalidated_.inc(inv);
      cluster_.restore_primary_spine();
      rejoins_.inc();
      record("rejoin spine-b->spine", /*recovery=*/true, at);
    }
    return;
  }
  // Leaf transitions. Workers are single-homed behind their leaf, so
  // there is no alternate path to fail over to; the spine's aging path
  // degrades the affected blocks instead. We account for the detachment
  // so operators see the blast radius.
  for (std::size_t r = 0; r < leaf_idx_.size(); ++r) {
    if (leaf_idx_[r] != idx) continue;
    if (dead) {
      subtree_detachments_.inc();
      record("subtree detached rack" + std::to_string(r) + " (" +
                 std::to_string(cluster_.workers_per_rack()) + " workers)",
             /*recovery=*/false, at);
    } else {
      record("subtree reattached rack" + std::to_string(r),
             /*recovery=*/true, at);
    }
    return;
  }
}

void RecoveryManager::record(const std::string& what, bool recovery,
                             sim::Time at) {
  log_.push_back(LogEntry{at, what});
  cluster_.telemetry().tracer.instant(HeartbeatMonitor::kTracePid,
                                      recovery ? 3 : 2, what, at);
}

std::uint64_t RecoveryManager::digest() const {
  // Fold the liveness log and the action log into one fingerprint, the
  // same shape as FaultInjector::digest().
  sim::Digest d(monitor_.digest());
  for (const LogEntry& entry : log_) {
    d.u64(std::uint64_t(entry.at.ns())).str(entry.what);
  }
  return d.value();
}

}  // namespace recovery
