// Runtime invariant engine (docs/vigil.md "Invariant catalogue").
//
// Cheap, always-on checkers over a live Cluster (and optionally its
// JobManager): frame/byte conservation on every link, slab-pool and SMS
// active-block accounting, no-stuck-XTXN (idle PPEs at quiescence),
// no-orphan-timer (idle workers hold no outstanding blocks), and netrpc
// slot/cache accounting. Violations are recorded, not thrown — a fuzz
// run collects everything it tripped, and the shrinker replays against
// the set.
//
// Checkers come in two flavours: *anytime* checks hold at every instant
// the simulator is parked between events (conservation), while
// *quiescence* checks additionally require the event queue to be fully
// drained (stuck threads, worker quiescence, byte totals). The runner
// calls check_quiescent() after its drain phase; callers stepping the
// clock mid-run may call check_conservation() as often as they like.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "jobs/tenant.hpp"
#include "sim/time.hpp"

namespace jobs {
class JobManager;
}

namespace vigil {

struct Violation {
  std::string invariant;  // catalogue name, e.g. "link-conservation"
  std::string detail;     // what went wrong, with the numbers
  sim::Time at;           // simulated time the check tripped
  bool operator==(const Violation&) const = default;
};

class InvariantEngine {
 public:
  explicit InvariantEngine(cluster::Cluster& cluster);

  /// Extends the checkers over a JobManager's tenants: per-tenant worker
  /// quiescence, per-tenant block quotas (from `spec`), and netrpc slot
  /// accounting. The manager and spec must outlive the engine.
  void attach_jobs(jobs::JobManager& manager, const jobs::JobsSpec& spec);

  // --- Anytime checks ----------------------------------------------------
  /// Frame/byte conservation per link endpoint:
  ///   frames_sent == frames_delivered + frames_in_flight
  /// (drops are rejected *before* frames_sent counts them; a frame once
  /// on the wire is delivered, never lost silently).
  void check_conservation();

  // --- Quiescence checks (event queue drained) ---------------------------
  /// Conservation with in_flight == 0: every accepted frame was
  /// delivered, and byte totals match exactly.
  void check_conservation_quiescent();
  /// Slab-pool accounting on every aggregation app: slabs in use ==
  /// sum of the per-job SMS active-block counters, and each job's active
  /// count respects its block_cnt_max quota.
  void check_slab_accounting();
  /// No PPE thread is still occupied — a non-zero count at quiescence is
  /// a stuck XTXN (a thread parked forever on a reply that cannot come).
  void check_no_stuck_threads();
  /// An idle (not busy, not crashed) worker holds no outstanding blocks
  /// and therefore no armed retransmit timer (the orphan-timer check).
  void check_worker_quiescence();
  /// NetRPC accounting: merged >= completed per tenant, and no client
  /// completed more calls than the datapath + aging scan emitted.
  void check_netrpc_accounting();

  /// Every quiescence check plus conservation, in catalogue order.
  void check_quiescent();

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  void clear() { violations_.clear(); }

 private:
  void report(const std::string& invariant, const std::string& detail);

  cluster::Cluster& cluster_;
  jobs::JobManager* jobs_ = nullptr;
  const jobs::JobsSpec* jobs_spec_ = nullptr;
  std::vector<Violation> violations_;
};

}  // namespace vigil
