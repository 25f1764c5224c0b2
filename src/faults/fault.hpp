// Fault taxonomy for deterministic chaos experiments (docs/faults.md).
//
// A FaultEvent is one timed action against one target in a running
// topology: flap a link, enable burst loss or corruption on it, stall a
// router's PFEs, crash or restart a host, or drop an aggregator's active
// block records. Events carry everything needed to execute them — the
// injector holds no hidden state — so a schedule replayed on the same
// topology with the same seeds produces bit-identical runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/link.hpp"
#include "sim/simulator.hpp"

namespace faults {

enum class FaultKind {
  kLinkDown,    // administratively down (until a matching kLinkUp)
  kLinkUp,      // bring a downed link back
  kLinkFlap,    // down at `at`, back up after `duration`
  kBurstLoss,   // Gilbert–Elliott burst loss; `duration` 0 = forever
  kIidLoss,     // i.i.d. loss at `probability`; `duration` 0 = forever
  kCorrupt,     // per-frame byte corruption; `duration` 0 = forever
  kRouterStall, // PFEs hold ingress for `duration`, then replay in order
  kHostCrash,   // worker loses all allreduce state and goes deaf
  kHostRestart, // crashed worker comes back cold
  kBucketDrop,  // aggregator drops every active block record of `job_id`
  kRouterKill,  // hard power loss: frames drop, aggregation state is
                // invalidated by generation bump (docs/recovery.md)
  kRouterRevive,// killed router forwards again (state stays invalidated)
};

/// What a fault applies to. `index` selects one instance; kAll hits every
/// instance of the kind (e.g. burst loss on every host link).
enum class TargetKind {
  kHostLink,    // worker `index`'s access link
  kFabricLink,  // rack `index`'s leaf->spine trunk
  kWorker,      // worker `index`
  kLeafRouter,  // rack `index`'s leaf router
  kSpineRouter, // the spine router
  kLeafAgg,     // rack `index`'s aggregation app
  kSpineAgg,    // the spine's aggregation app
};

/// Which direction of a full-duplex link a fault hits.
enum class LinkDir {
  kBoth,
  kUp,    // a_to_b: worker->leaf on host links, leaf->spine on trunks
  kDown,  // b_to_a: the return direction
};

struct Target {
  static constexpr int kAll = -1;
  TargetKind kind = TargetKind::kHostLink;
  int index = kAll;
  LinkDir dir = LinkDir::kBoth;
};

struct FaultEvent {
  sim::Time at;
  FaultKind kind = FaultKind::kLinkFlap;
  Target target;
  /// Flap outage length / loss-model window / stall length. Zero means
  /// "forever" for the loss models and is invalid for flap and stall.
  sim::Duration duration = sim::Duration::zero();
  double probability = 0.0;       // kIidLoss / kCorrupt per-frame prob.
  net::GilbertElliott burst;      // kBurstLoss chain parameters
  std::uint8_t job_id = 1;        // kBucketDrop target job
  /// Tenant qualifier (docs/jobs.md): scopes kHostCrash / kHostRestart to
  /// the tenant's worker multiplexed on the target host (the injector's
  /// tenant-worker resolver maps (tenant, host) to the worker), and is an
  /// alias for job_id on kBucketDrop. -1 = untenanted: the host's primary
  /// worker / the job_id field as written.
  int tenant = -1;
  /// Loss/corruption stream seed; 0 derives one from (at, kind, target)
  /// so distinct events get decorrelated yet reproducible streams.
  std::uint64_t seed = 0;
  /// Source position in the DSL text this event was parsed from (1-based;
  /// line 0 = built programmatically). Diagnostics only — ignored by the
  /// injector and by schedule equality/digests.
  int line = 0;
  int col = 0;
};

/// Human-readable one-liner ("10ms flap host:3 for 2ms") used in the
/// injector's event log, trace rows and error messages.
std::string describe(const FaultEvent& event);

/// The DSL verb of `kind` ("flap", "drop-buckets", ...), and back.
const char* kind_name(FaultKind kind);
std::optional<FaultKind> kind_from_name(std::string_view verb);
std::string target_name(const Target& target);

}  // namespace faults
