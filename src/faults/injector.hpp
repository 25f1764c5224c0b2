// FaultInjector: executes a FaultSchedule against a live cluster::Cluster
// on the simulated clock (docs/faults.md).
//
// The injector expands wildcard targets, schedules every event — and the
// recovery half of windowed events (flap up, loss-model off, resume) — as
// a global action on the cluster's engine, and records each action in an
// ordered event log. The FNV-1a digest over that log is the replay
// fingerprint: two runs of the same schedule on the same cluster must
// produce equal digests (tests/faults_test.cpp).
//
// Every action is counted in the telemetry registry under `faults.*` and
// emitted as an instant trace row on pid kTracePid, so chaos shows up
// directly in Perfetto next to the PFE spans it perturbs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "faults/schedule.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace cluster {
class Cluster;
}
namespace trioml {
class TrioMlWorker;
}

namespace faults {

class FaultInjector {
 public:
  /// Injects into `cluster`, which must outlive the injector. Counts and
  /// trace rows go to the cluster's telemetry (Cluster::telemetry()).
  ///
  /// Every fault executes as a *global action* of the cluster's sharded
  /// engine — on the engine's window-planning thread, with all shards
  /// parked, all events before the fault time executed and every shard
  /// clock reading it. That makes chaos runs shard-count invariant (one
  /// log, one total order) without per-shard fault plumbing.
  explicit FaultInjector(cluster::Cluster& cluster);

  /// Schedules every event of `schedule` on the engine. May be called
  /// multiple times (schedules accumulate). Throws std::out_of_range for
  /// a target the cluster lacks.
  void arm(const FaultSchedule& schedule);

  /// Base seed folded into every derived loss/corruption stream seed
  /// (`trio-run --seed`, docs/faults.md): events with an explicit
  /// `seed=` keep it; events without one get decorrelated streams that
  /// differ between base seeds yet replay identically for the same one.
  void set_base_seed(std::uint64_t seed) { base_seed_ = seed; }
  std::uint64_t base_seed() const { return base_seed_; }

  /// Installs the tenant-worker resolver (docs/jobs.md): maps a
  /// `tenant=` qualified crash/restart to the tenant's worker on host
  /// `host`. Wired up by jobs::JobManager; returning null makes the event
  /// a logged no-op (tenant has no worker on that host).
  void set_tenant_worker_resolver(
      std::function<trioml::TrioMlWorker*(int tenant, int host)> resolver) {
    tenant_resolver_ = std::move(resolver);
  }

  /// Tried *before* the worker resolver for `tenant=` qualified
  /// crash/restart: non-allreduce tenant endpoints on a host (netrpc
  /// clients/servers, docs/netrpc.md). Return true when the event was
  /// handled; false falls through to the worker resolver.
  void set_tenant_host_handler(
      std::function<bool(int tenant, int host, bool restart)> handler) {
    tenant_host_handler_ = std::move(handler);
  }

  /// `bucketdrop` against leaf 0 with a netrpc tenant's job id destroys
  /// that tenant's hot-key cache entries (its aggregation state); returns
  /// the number of entries dropped, 0 for non-netrpc tenants.
  void set_cache_dropper(
      std::function<std::size_t(std::uint8_t tenant)> dropper) {
    cache_dropper_ = std::move(dropper);
  }

  struct LogEntry {
    sim::Time at;
    std::string what;
  };
  /// Every executed action (faults and recoveries) in execution order.
  const std::vector<LogEntry>& log() const { return log_; }
  /// FNV-1a fingerprint of the log — equal across deterministic replays.
  std::uint64_t digest() const;

  std::uint64_t faults_injected() const { return faults_injected_.value(); }
  std::uint64_t recoveries() const { return recoveries_.value(); }
  /// Total block records destroyed by kBucketDrop events.
  std::uint64_t buckets_dropped() const { return buckets_dropped_.value(); }
  /// Total block records invalidated by kRouterKill generation bumps.
  std::uint64_t blocks_invalidated() const {
    return blocks_invalidated_.value();
  }

  /// Trace pid for chaos instant rows (clears the Cluster summary band).
  static constexpr int kTracePid = 999'000;

 private:
  void execute(const FaultEvent& event);
  void apply_to_link(const FaultEvent& event, net::Link& link, int instance);
  void record(const std::string& what, bool recovery);
  std::uint64_t derive_seed(const FaultEvent& event, int instance) const;
  /// Schedules the recovery half of a windowed fault (flap up, loss-model
  /// off, resume) as a global action `delay` after the running one.
  void schedule_after(sim::Duration delay, sim::EventQueue::Callback fn);

  cluster::Cluster& cluster_;
  std::uint64_t base_seed_ = 0;
  std::function<trioml::TrioMlWorker*(int tenant, int host)> tenant_resolver_;
  std::function<bool(int tenant, int host, bool restart)> tenant_host_handler_;
  std::function<std::size_t(std::uint8_t tenant)> cache_dropper_;

  std::vector<LogEntry> log_;
  telemetry::Counter faults_injected_;
  telemetry::Counter recoveries_;
  telemetry::Counter buckets_dropped_;
  telemetry::Counter blocks_invalidated_;
};

}  // namespace faults
