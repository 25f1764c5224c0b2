// The scenario runner — the one way trio-sim runs a Trio-ML cluster
// experiment (docs/vigil.md "The runner"). A Scenario names the topology,
// the tenants, the recovery machinery, the fault schedule, the seed, the
// deadline and the retransmit hardening; run_schedule() builds it fresh,
// arms the faults, hardens the workers, runs until every participant
// finished (or the deadline) under a simulated-time progress watchdog,
// drains, and runs the invariant catalogue and the golden-digest check.
// `trio-run --cluster`, `trio-fuzz` and `bench/fig_chaos` are front-ends:
// each reads its own statistics from the objects the run leaves Built.
//
// Convergence contract: crashed participants are expected casualties;
// abandoned (give-up) completions are *degraded but converged*; every
// other survivor must finish. Golden-digest convergence — a faulted run's
// results must be bit-identical to the same scenario run fault-free — is
// asserted only when the run is provably lossless in value space: every
// worker finished, nothing crashed, no degraded or abandoned blocks, and
// no frame was corrupted (corruption silently changes sums; everything
// else only delays or re-sends exact integer contributions).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "jobs/fluid.hpp"
#include "jobs/job_manager.hpp"
#include "recovery/recovery.hpp"
#include "sim/time.hpp"
#include "vigil/generator.hpp"
#include "vigil/invariants.hpp"

namespace vigil {

/// Loss recovery hardened for injected faults, applied to every worker,
/// plus straggler aging (1 ms) so dead contributors age out. The defaults
/// are the runner's one policy, shared by `trio-run --faults` and every
/// fuzz profile.
struct Hardening {
  sim::Duration initial_timeout = sim::Duration::millis(1);
  std::uint32_t retry_budget = 6;
  sim::Duration backoff_max = sim::Duration::millis(8);
  /// Degraded-completion grace once every outstanding block exhausted
  /// its budget; zero never gives up (the historical wedge that
  /// `trio-fuzz --plant-bug` re-introduces).
  sim::Duration give_up = sim::Duration::millis(10);
  /// Reseed every worker's backoff jitter from Scenario::seed
  /// (`trio-run --seed`); otherwise each keeps its per-worker default.
  bool seed_jitter = false;
};

struct Scenario {
  /// Topology, shard count and telemetry. Every feature runs at any
  /// shard count, with identical results.
  cluster::ClusterSpec cluster;
  /// Gradient blocks per worker of the cluster's built-in allreduce, which
  /// runs when `jobs` declares no tenants.
  int blocks = 8;
  jobs::JobsSpec jobs;
  bool isolation = true;  // JobManager::enable_isolation
  bool fluid = false;     // demote eligible best-effort tenants to fluid
  /// Heartbeat liveness detection and automatic spine failover.
  std::optional<recovery::RecoveryConfig> recovery;
  faults::FaultSchedule schedule;
  /// Seeds the injector's derived loss/corruption streams (and, with
  /// Hardening::seed_jitter, every worker's backoff jitter).
  std::uint64_t seed = 0;
  sim::Time deadline = sim::Time() + sim::Duration::millis(200);
  /// Unset leaves workers as the paper runs them: no retransmit backoff
  /// or retry budget, no straggler aging.
  std::optional<Hardening> hardening;
};

/// The canonical scenario of a fuzz profile (docs/vigil.md "Profiles"):
/// its topology and tenants, recovery for `failover`, the default
/// Hardening, a 120 ms deadline and one shard per router. The caller sets
/// seed and schedule.
Scenario profile_scenario(Profile profile, int blocks_per_worker = 2);

/// Everything run_schedule() built, left readable for a front-end's own
/// statistics. Members are declared in build order, so each is destroyed
/// before what it references.
struct Built {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<recovery::RecoveryManager> recovery;
  std::unique_ptr<jobs::JobManager> jobs;
  std::unique_ptr<jobs::FluidController> fluid;
  std::unique_ptr<faults::FaultInjector> injector;
  /// The built-in allreduce's outcome (no tenants declared).
  cluster::AllreduceRun allreduce;
  /// JobManager::run()'s outcome (tenants declared).
  jobs::MultiTenantRun tenants;
};

struct RunReport {
  std::vector<Violation> violations;

  /// Every participant either finished or crashed.
  bool converged = false;
  int finished = 0;
  int expected = 0;
  int crashed = 0;  // participants that crashed at least once
  std::uint64_t degraded_blocks = 0;
  std::uint64_t abandoned_blocks = 0;
  std::uint64_t corrupted_frames = 0;
  std::uint64_t retransmissions = 0;
  /// FaultInjector::digest() — the executed-action log's fingerprint.
  std::uint64_t fault_digest = 0;
  /// (participant id, result digest) for every participant that finished
  /// *clean* — no crash, nothing degraded or abandoned. Id 0 is the
  /// built-in allreduce; otherwise the allreduce tenant id. These are
  /// what the golden-digest check compares to the fault-free run.
  std::vector<std::pair<int, std::uint64_t>> digests;
  /// When the run stopped: every participant finished, or the deadline.
  sim::Time finish;

  bool ok() const { return converged && violations.empty(); }
  /// Field-wise: the 1-vs-N shard oracle compares whole reports.
  bool operator==(const RunReport&) const = default;
};

/// Builds `scenario` fresh (the shrinker re-runs it dozens of times),
/// runs it and checks it. Throws std::invalid_argument or
/// std::runtime_error when the scenario cannot be built (invalid spec,
/// rejected admission, unarmable schedule). Pass a default-constructed
/// `built` to keep the cluster, managers and outcomes for inspection.
RunReport run_schedule(const Scenario& scenario, Built* built = nullptr);

}  // namespace vigil
