// FluidController: the fidelity boundary between fluid and packet
// modelling on a Cluster (docs/fluid.md).
//
// The sim::FluidEngine knows nothing about topology; this layer maps the
// cluster's host uplinks and leaf->spine trunks onto fluid-engine links —
// wiring each one's packet-occupancy probe (LinkEndpoint::bytes_sent) and
// rate observer (LinkEndpoint::set_fluid_load) — and owns the *streams*:
// best-effort aggressors demoted to fluid mode (docs/fluid.md
// "Eligibility"). A stream is an open-ended paced UDP stream up one host
// link and its rack trunk: a jobs::BestEffortSource while it is packets.
//
// Packet-fidelity regions demote nothing and re-materialise everything:
// while any region is active (enter_packet_mode/exit_packet_mode nest),
// every stream's fluid flow is paused and its BestEffortSource injects
// real net::Packet frames — the packet-mode generator itself, sending on
// the stream's real LinkEndpoint, crossing domains as ordinary
// cross-domain deliveries — so losses, QoS and RMW effects inside the
// region are packet-exact. On exit the source stops and the flow resumes
// its fluid rate. observe(FaultSchedule) precomputes every fault's active
// window and enters/exits it via deterministic global actions, padded by
// kWindowPadding for loss tails.
//
// Every transition runs as a ShardedSimulator global action, so the
// fluid/packet hand-off happens at a deterministic simulated time with
// all shards parked — digests are bit-identical at any --shards count.
// The controller's wakeups and open-ended streams keep the event queue
// non-empty: drive the run with run_until(deadline) and call stop() at
// the end, like trace sampling and the RecoveryManager.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/cluster.hpp"
#include "faults/schedule.hpp"
#include "jobs/best_effort.hpp"
#include "net/link.hpp"
#include "sim/fluid.hpp"

namespace jobs {

class FluidController {
 public:
  /// Grace period appended to every fault window before streams demote
  /// back to fluid mode: retransmits and queue drain caused *inside* the
  /// window still see packet fidelity.
  static constexpr sim::Duration kWindowPadding = sim::Duration::micros(100);

  explicit FluidController(cluster::Cluster& cluster);
  FluidController(const FluidController&) = delete;
  FluidController& operator=(const FluidController&) = delete;

  /// Open-ended best-effort aggressor on `host`'s uplink + rack trunk at
  /// `load` (fraction of the host line rate). Call before the run or from
  /// global context.
  void add_background_stream(int host, std::uint8_t tenant, double load);
  std::size_t num_streams() const { return streams_.size(); }

  // --- Fidelity regions ---------------------------------------------------
  /// Precomputes every fault's active window (faults::packet_windows) and
  /// schedules the enter/exit transitions as global actions. Call before
  /// the run starts.
  void observe(const faults::FaultSchedule& schedule);
  /// Manual region nesting (the observe() transitions use these).
  void enter_packet_mode();
  void exit_packet_mode();
  bool packet_mode() const { return packet_depth_ > 0; }

  /// Stops fluid wakeups and sources; pending transitions no-op. The run
  /// cannot drain before this is called, and a stopped controller stays
  /// stopped.
  void stop();
  bool stopped() const { return stopped_; }

  // --- Stats --------------------------------------------------------------
  /// Fluid->packet + packet->fluid transitions executed.
  std::uint64_t transitions() const { return transitions_; }
  /// Real frames injected by re-materialised streams.
  std::uint64_t packet_frames() const;
  /// Wire bytes those frames carried.
  std::uint64_t packet_bytes() const {
    return packet_frames() * BestEffortSource::kFrameBytes;
  }
  /// Bytes advanced in fluid mode across all streams.
  std::uint64_t fluid_bytes() const { return fluid_.fluid_bytes_total(); }
  std::uint64_t windows_observed() const { return windows_observed_; }

 private:
  /// A stream's source runs on its host link's domain simulator, so its
  /// frames take the normal send path.
  struct Stream {
    sim::FluidEngine::FlowId flow = 0;
    BestEffortSource source;
  };

  sim::FluidEngine::LinkId map_endpoint(net::LinkEndpoint& ep,
                                        std::vector<int>& table,
                                        std::size_t index);

  cluster::Cluster& cluster_;
  sim::FluidEngine fluid_;
  // Lazily-built physical-endpoint -> fluid-link tables (-1 = unmapped).
  std::vector<int> host_up_;
  std::vector<int> trunk_up_;
  std::deque<Stream> streams_;  // a deque keeps source addresses stable
  int packet_depth_ = 0;
  bool stopped_ = false;
  std::uint64_t transitions_ = 0;
  std::uint64_t windows_observed_ = 0;
};

}  // namespace jobs
