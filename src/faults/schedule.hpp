// FaultSchedule: an ordered list of FaultEvents, built programmatically
// (fluent builder) or parsed from the line-oriented chaos DSL consumed
// by `trio-run --faults FILE` (grammar in docs/faults.md):
//
//   # outage on worker 3's access link, burst loss everywhere, one crash
//   at 10ms flap host:3 for 2ms
//   at 0ms  burst host:* p_enter=0.02 p_exit=0.3 for 5ms
//   at 1ms  loss fabric:0 0.05 for 3ms
//   at 2ms  corrupt host:1.up 0.01
//   at 4ms  stall leaf:0 for 500us
//   at 3ms  crash worker:5
//   at 6ms  restart worker:5
//   at 5ms  drop-buckets spine job=1
//
// Times are absolute simulation times (`10ms`, `250us`, `1s`, `4000ns`);
// events may appear in any order — the injector sorts before arming. The
// text is read through the shared DSL front end (dsl/lexer.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault.hpp"

namespace faults {

class FaultSchedule {
 public:
  // --- Fluent builder (each returns *this for chaining) ------------------
  FaultSchedule& flap(sim::Time at, Target link, sim::Duration outage);
  FaultSchedule& link_down(sim::Time at, Target link);
  FaultSchedule& link_up(sim::Time at, Target link);
  /// `window` zero = burst loss stays on for the rest of the run.
  FaultSchedule& burst_loss(sim::Time at, Target link,
                            const net::GilbertElliott& model,
                            sim::Duration window = sim::Duration::zero(),
                            std::uint64_t seed = 0);
  FaultSchedule& iid_loss(sim::Time at, Target link, double probability,
                          sim::Duration window = sim::Duration::zero(),
                          std::uint64_t seed = 0);
  FaultSchedule& corrupt(sim::Time at, Target link, double probability,
                         sim::Duration window = sim::Duration::zero(),
                         std::uint64_t seed = 0);
  FaultSchedule& stall(sim::Time at, Target router, sim::Duration length);
  /// Hard router death (docs/recovery.md): frames drop and the router's
  /// aggregation state is invalidated. Recover with revive() + the
  /// recovery control plane, not a matching `up`.
  FaultSchedule& kill(sim::Time at, Target router);
  FaultSchedule& revive(sim::Time at, Target router);
  /// `tenant` >= 0 scopes the crash/restart to that tenant's worker
  /// multiplexed on host `worker` (docs/jobs.md); -1 = primary worker.
  FaultSchedule& crash(sim::Time at, int worker, int tenant = -1);
  FaultSchedule& restart(sim::Time at, int worker, int tenant = -1);
  FaultSchedule& drop_buckets(sim::Time at, Target agg, std::uint8_t job_id);
  FaultSchedule& add(FaultEvent event);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Parses the chaos DSL. Throws std::invalid_argument naming the
  /// offending line and column on any syntax error or out-of-range number.
  static FaultSchedule parse(const std::string& text);
  /// parse() over a file's contents; throws std::runtime_error when the
  /// file cannot be read.
  static FaultSchedule load(const std::string& path);

  /// Serializes the schedule back into DSL text parse() accepts —
  /// `parse(s.to_dsl())` produces an equivalent schedule, every 64-bit
  /// `seed=` included. The replayable `.faults` repro format the vigil
  /// shrinker emits (docs/vigil.md).
  std::string to_dsl() const;

  /// Cross-event semantic validation (docs/faults.md "Schedule
  /// validation"). Rejects, with the offending event's line/col:
  ///   * `revive` with no kill still open on that router;
  ///   * `kill` while an earlier kill on the same router is still open
  ///     (overlapping kill–revive windows);
  ///   * `restart` with no crash open on that (worker, tenant), and
  ///     `crash` while one is already open;
  ///   * when `declared_tenants` is non-null, any `tenant=` qualifier
  ///     naming a tenant outside it (the tenants the jobs spec declares).
  /// Wildcard targets match any instance. Throws std::invalid_argument.
  void validate(const std::vector<int>* declared_tenants = nullptr) const;

  // --- Target shorthands (mirror the DSL's target syntax) ----------------
  static Target host_link(int worker, LinkDir dir = LinkDir::kBoth) {
    return Target{TargetKind::kHostLink, worker, dir};
  }
  static Target fabric_link(int rack, LinkDir dir = LinkDir::kBoth) {
    return Target{TargetKind::kFabricLink, rack, dir};
  }
  static Target worker(int index) {
    return Target{TargetKind::kWorker, index, LinkDir::kBoth};
  }
  static Target leaf_router(int rack) {
    return Target{TargetKind::kLeafRouter, rack, LinkDir::kBoth};
  }
  static Target spine_router() {
    return Target{TargetKind::kSpineRouter, 0, LinkDir::kBoth};
  }
  static Target leaf_agg(int rack) {
    return Target{TargetKind::kLeafAgg, rack, LinkDir::kBoth};
  }
  static Target spine_agg() {
    return Target{TargetKind::kSpineAgg, 0, LinkDir::kBoth};
  }

 private:
  std::vector<FaultEvent> events_;
};

/// One packet-fidelity window a fault implies (docs/fluid.md): while any
/// window is active, fluid-demoted flows must run as real packets so the
/// fault's effects (drops, corruption, stalls, kills) are packet-exact.
/// `end == sim::Time::max()` means the fault never clears within the
/// schedule; instantaneous faults (bucket drops) have `end == start` —
/// consumers pad for the recovery tail.
struct PacketWindow {
  sim::Time start;
  sim::Time end;
};

/// Derives every packet-fidelity window from a schedule: windowed faults
/// (`for ...`) span their duration, paired faults (down/up, kill/revive,
/// crash/restart) span until the matching closing event on the same
/// target, unpaired ones run forever. Windows may overlap; they are
/// returned in event order, not merged.
std::vector<PacketWindow> packet_windows(const FaultSchedule& schedule);

}  // namespace faults
