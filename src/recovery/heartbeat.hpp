// Timer-thread liveness detection (docs/recovery.md).
//
// The paper's §5 timer threads scan hash tables for straggling *blocks*;
// the same hardware mechanism naturally yields router *liveness*: a
// heartbeat timer group on each watched router's PFE spawns a tiny
// program every period, and each execution reports to a central
// HeartbeatMonitor. A killed router stops producing heartbeats (its
// heartbeat program factory refuses to spawn, like every other thread on
// a powered-off chip), and the monitor's phi-style accrual estimator
// turns the growing silence into a suspicion level: with exponentially
// distributed inter-arrivals of estimated mean m, the probability that a
// live router stays silent for t is e^(-t/m), so
//
//     phi(t) = -log10 P(silence >= t) = (t / m) * log10(e).
//
// Crossing phi_threshold declares the router dead; a later heartbeat
// (after `revive`) is detected as a revival. All transitions land in a
// deterministic event log with an FNV-1a digest, mirroring the fault
// injector's replay fingerprint.
//
// At any shard count: a heartbeat touches only its router's own entry,
// stamped with that router's clock; the phi check, every logged
// transition and every hook run as engine global actions, all shards
// parked (docs/recovery.md "At any shard count").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/shard.hpp"
#include "telemetry/telemetry.hpp"
#include "trio/router.hpp"

namespace recovery {

/// Phi-accrual suspicion over heartbeat inter-arrival times: an EWMA of
/// the observed intervals plus the log-scale silence probability above.
class PhiEstimator {
 public:
  explicit PhiEstimator(double alpha = 0.125) : alpha_(alpha) {}

  /// Records a heartbeat arrival.
  void observe(sim::Time now);
  /// Suspicion level at `now`; 0 until primed (two heartbeats seen).
  double phi(sim::Time now) const;
  bool primed() const { return samples_ >= 2; }
  double mean_interval_ns() const { return mean_ns_; }
  std::uint64_t samples() const { return samples_; }
  sim::Time last_heartbeat() const { return last_; }

 private:
  double alpha_;
  double mean_ns_ = 0.0;
  sim::Time last_;
  std::uint64_t samples_ = 0;
};

struct HeartbeatConfig {
  /// Heartbeat period per watched router (one timer group each).
  sim::Duration period = sim::Duration::micros(100);
  /// Phase-shifted timers per group (1 is enough; more tightens jitter).
  int timers = 1;
  /// How often the monitor re-evaluates every router's phi.
  sim::Duration check_period = sim::Duration::micros(50);
  /// Death threshold: phi 8 == P(still alive) < 1e-8, ~18.4 quiet
  /// periods under the exponential model.
  double phi_threshold = 8.0;
  double ewma_alpha = 0.125;
};

class HeartbeatMonitor {
 public:
  /// Counts and trace rows go to `telem` (Cluster::telemetry()). `engine`
  /// runs the watched routers (Cluster::engine()).
  HeartbeatMonitor(sim::ShardedSimulator& engine, telemetry::Telemetry& telem,
                   HeartbeatConfig config);

  /// Registers a router to watch. Call before start(); returns the
  /// router's watch index.
  int watch(const std::string& name, trio::Router& router);

  /// Starts the heartbeat timer group on every watched router's PFE 0
  /// and the monitor's periodic phi check. The check keeps the engine
  /// from draining — pair with run_until() + stop(). A check still
  /// pending after stop() does nothing when it fires.
  void start();
  void stop();
  bool running() const { return running_; }

  int watched() const { return static_cast<int>(watched_.size()); }
  const std::string& name(int idx) const;
  bool dead(int idx) const;
  double phi_now(int idx) const;
  const PhiEstimator& estimator(int idx) const;

  /// Fires from the phi check on every liveness transition: (watch index,
  /// now dead?, when). A death is stamped with the check's time, a
  /// revival with the first heartbeat the dead-marked router produced.
  using TransitionHook = std::function<void(int idx, bool dead, sim::Time at)>;
  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  /// Called by the in-router heartbeat program on each execution, on the
  /// watched router's shard.
  void on_heartbeat(int idx);

  struct LogEntry {
    sim::Time at;
    std::string what;
  };
  /// Every liveness transition in execution order.
  const std::vector<LogEntry>& log() const { return log_; }
  /// FNV-1a fingerprint of the log — equal across deterministic replays.
  std::uint64_t digest() const;

  std::uint64_t heartbeats() const;
  std::uint64_t deaths_declared() const { return deaths_declared_.value(); }
  std::uint64_t revivals_detected() const {
    return revivals_detected_.value();
  }

  /// Trace pid for liveness instant rows (below the injector's 999'000).
  static constexpr int kTracePid = 998'000;

 private:
  struct Watched {
    std::string name;
    trio::Router* router = nullptr;
    PhiEstimator estimator;
    /// Written on the router's shard, so one count per watched router.
    telemetry::Counter beats;
    bool dead = false;
    /// First heartbeat since the death declaration; max() when none.
    sim::Time revived_at = sim::Time::max();
    int timer_group = -1;
  };

  void schedule_check();
  void check();
  void transition(int idx, bool dead, sim::Time at);

  sim::ShardedSimulator& engine_;
  telemetry::Telemetry& telem_;
  HeartbeatConfig config_;
  std::vector<Watched> watched_;
  TransitionHook hook_;
  bool running_ = false;
  /// Bumped by stop(): a check scheduled under an older epoch no-ops.
  std::uint64_t epoch_ = 0;

  std::vector<LogEntry> log_;
  telemetry::Counter deaths_declared_;
  telemetry::Counter revivals_detected_;
};

}  // namespace recovery
