// FluidEngine: flow-level (fluid) traffic modelling for open-ended
// background streams (docs/fluid.md).
//
// Packet-level simulation pays one event per frame per hop; a saturating
// background stream on a 100 Gbps link is ~8.5M frames per simulated
// second before it ever reaches a router. The fluid engine advances
// *designated* flows as rate-shared streams instead: each flow is a route
// (a list of FluidEngine links) and a demand cap. Rates are the
// demand-capped max-min fair allocation over the link graph (progressive
// filling, the same congestion-aware link sharing tt-npe applies to NoC
// transfers) and are recomputed only at *fluid events* — flow arrival,
// pause/resume at a fidelity boundary, or the periodic tick that
// re-samples packet occupancy. Between events every flow just accrues
// rate x time bytes; nothing is simulated per frame.
//
// Coexistence with packet traffic is two-way (docs/fluid.md "Shared
// capacity"): each link can carry a packet-occupancy probe (cumulative
// bytes transmitted by real frames); the measured packet rate since the
// last update is subtracted from the capacity the fluid allocation may
// use, and every recomputation pushes the link's total fluid rate to a
// rate observer so the packet side (net::LinkEndpoint::set_fluid_load)
// can stretch its serialization delay by the bandwidth the fluid flows
// hold.
//
// Determinism (the non-negotiable): all fluid state is global, so every
// wakeup runs as a ShardedSimulator *global action* — at a deterministic
// simulated time, with every shard parked and every earlier event
// executed. Nothing in a rate update depends on thread timing or shard
// packing, so golden digests are bit-identical at any --shards count.
// All engine methods must be called from that same serialized context:
// before the run starts, between runs, or from a global action (never
// from a shard event handler).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace sim {

class ShardedSimulator;

class FluidEngine {
 public:
  using LinkId = std::uint32_t;
  using FlowId = std::uint32_t;

  /// Rate-update cadence while any flow is running: packet-occupancy
  /// probes are re-sampled and rates recomputed every tick.
  static constexpr Duration kTick = Duration::micros(20);

  explicit FluidEngine(ShardedSimulator& engine);
  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  // --- Link graph --------------------------------------------------------
  /// Registers a link of `capacity_gbps` (1 Gbps == 1 bit/ns) and returns
  /// its id. Links are never removed.
  LinkId add_link(double capacity_gbps);

  /// Installs the packet-occupancy probe: sampled at every update, must
  /// return the cumulative bytes real frames have transmitted on the
  /// link. The rate since the previous sample is reserved away from the
  /// fluid capacity.
  void set_packet_probe(LinkId link, std::function<std::uint64_t()> probe);

  /// Observer pushed after every recomputation with the link's new total
  /// fluid rate — the hook that feeds net::LinkEndpoint::set_fluid_load.
  void set_rate_observer(LinkId link, std::function<void(double)> obs);

  // --- Flows -------------------------------------------------------------
  struct FlowSpec {
    /// Links traversed, in order (order is irrelevant to the allocation).
    /// Must not be empty.
    std::vector<LinkId> route;
    /// Source pacing cap in Gbps; <= 0 means unbounded (share-limited).
    double demand_gbps = 0.0;
  };

  /// Registers an open-ended flow and recomputes rates. The flow starts
  /// accruing now and runs until the engine stops.
  FlowId add_flow(FlowSpec spec);

  /// Fidelity boundary (docs/fluid.md "Demotion and re-materialisation"):
  /// pause stops accrual and releases the flow's bandwidth — the caller
  /// re-materialises it as real frames; resume returns it to fluid mode.
  void pause_flow(FlowId id);
  void resume_flow(FlowId id);

  bool flow_paused(FlowId id) const { return flows_[id].paused; }
  double flow_rate_gbps(FlowId id) const { return flows_[id].rate_gbps; }

  /// Stops scheduling wakeups; a pending wakeup no-ops. Call when the
  /// run is over — open-ended flows would otherwise keep the simulation
  /// ticking forever (pair with run_until, like trace sampling).
  void stop() { stopped_ = true; }

  // --- Introspection / bench counters ------------------------------------
  double link_fluid_gbps(LinkId link) const { return links_[link].fluid_gbps; }
  double link_packet_gbps(LinkId link) const {
    return links_[link].packet_gbps;
  }
  /// Total bytes advanced in fluid mode across all flows.
  std::uint64_t fluid_bytes_total() const { return fluid_bytes_total_; }

 private:
  struct LinkState {
    double capacity_gbps = 0.0;
    double packet_gbps = 0.0;  // measured since the previous probe sample
    double fluid_gbps = 0.0;   // sum of current flow rates through it
    std::uint64_t probe_last = 0;
    std::function<std::uint64_t()> probe;
    std::function<void(double)> observer;
  };
  struct FlowState {
    std::vector<LinkId> route;
    double demand_gbps = 0.0;
    double rate_gbps = 0.0;
    double frac = 0.0;  // sub-byte accrual remainder
    bool paused = false;
  };

  Time now() const;
  bool any_running() const;
  /// Accrues rate x dt onto every running flow.
  void advance_to_now();
  /// Re-samples packet probes, recomputes the max-min allocation and
  /// pushes rate observers.
  void update();
  void sample_probes(Time at);
  void recompute_rates();
  void push_observers();
  void schedule_wakeup();
  void on_wake();

  ShardedSimulator& engine_;
  std::vector<LinkState> links_;
  std::vector<FlowState> flows_;
  Time last_advance_;
  Time last_probe_;
  Time next_wake_ = Time::max();
  bool stopped_ = false;
  std::uint64_t fluid_bytes_total_ = 0;
};

}  // namespace sim
