// Seeded random fault-scenario generator (docs/vigil.md).
//
// One 64-bit seed expands — through a weighted grammar — into an
// arbitrary, *valid* FaultSchedule program: link flaps, down/up windows,
// burst and i.i.d. loss, corruption, router stalls, kill/revive windows,
// permanent kills, host crash/restart windows, tenant-scoped crashes and
// bucket drops. Generation is fully reproducible: the same (seed,
// grammar, shape) triple always yields the same schedule, and every
// loss/corruption event carries an explicit 32-bit `seed=` so the
// schedule replays bit-identically even through a `.faults` round trip
// (see FaultSchedule::to_dsl; `seed=` reads back all 64 bits).
//
// Generated schedules always pass FaultSchedule::validate(): kill/revive
// windows never overlap per router, crash/restart windows never overlap
// per (worker, tenant), and tenant qualifiers only name declared tenants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/schedule.hpp"
#include "sim/time.hpp"

namespace vigil {

/// Workload profile a scenario is generated for / replayed against
/// (docs/vigil.md "Profiles"). Each fixes one topology + workload and a
/// grammar tuned to the subsystems it exercises.
enum class Profile {
  kFailover,  // 2x2 + backup spine + RecoveryManager; spine/leaf kills
  kJobs,      // multi-tenant allreduce + best-effort, tenant crashes
  kNetRpc,    // allreduce + canned netrpc tenant, cache/bucket drops
  kFluid,     // best-effort fluid streams + fault-window rematerialise
};

const char* profile_name(Profile profile);
/// Parses "failover" / "jobs" / "netrpc" / "fluid"; throws
/// std::invalid_argument on anything else.
Profile parse_profile(const std::string& name);

/// What the generator may target: the topology's extents plus the tenant
/// ids that `tenant=` qualifiers may name (empty = untenanted run).
struct ScenarioShape {
  int racks = 2;
  int workers_per_rack = 2;
  bool has_backup_spine = false;
  std::vector<int> tenants;

  int total_workers() const { return racks * workers_per_rack; }
};

/// Event-family weights and intensity bounds. A weight of 0 disables the
/// family; weights are relative (they need not sum to anything).
struct Grammar {
  double w_flap = 1.0;
  double w_down_up = 1.0;      // paired down ... up window
  double w_burst = 1.0;        // Gilbert–Elliott window
  double w_loss = 1.0;         // i.i.d. loss window
  double w_corrupt = 0.0;      // byte corruption (off by default: silent
                               // payload damage voids golden digests)
  double w_stall = 1.0;        // router ingress stall
  double w_kill_revive = 0.0;  // paired router kill ... revive
  double w_kill_perm = 0.0;    // permanent router kill (no revive)
  double w_crash_restart = 1.0;
  double w_crash_perm = 0.5;   // permanent host crash
  double w_bucket_drop = 1.0;
  double w_tenant_crash = 0.0; // tenant-scoped crash/restart window

  int min_events = 2;
  int max_events = 8;
  /// Fault start times are drawn in [0, horizon). Matched to the
  /// runner's workloads, which complete in ~1ms fault-free: a horizon
  /// much past that mostly hits an idle cluster.
  sim::Duration horizon = sim::Duration::millis(2);
  /// Windowed faults last [min_window, max_window].
  sim::Duration min_window = sim::Duration::micros(50);
  sim::Duration max_window = sim::Duration::millis(4);
  double max_loss = 0.2;      // i.i.d. loss probability cap
  double max_corrupt = 0.01;  // corruption probability cap

  bool allow_spine_kill = false;  // only sane with a standby spine
  bool allow_leaf_kill = false;   // leaf death = degraded completion path
};

/// The grammar each profile fuzzes with (docs/vigil.md lists them).
Grammar profile_grammar(Profile profile);
/// The topology/tenant shape each profile's runner builds.
ScenarioShape profile_shape(Profile profile);

/// Expands `seed` into a FaultSchedule under `grammar` and `shape`.
/// Deterministic; the result always passes validate(&shape.tenants).
faults::FaultSchedule generate(std::uint64_t seed, const Grammar& grammar,
                               const ScenarioShape& shape);

/// generate() with the profile's canonical grammar and shape.
faults::FaultSchedule generate(std::uint64_t seed, Profile profile);

}  // namespace vigil
