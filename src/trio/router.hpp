// A Trio-based router/switch (paper Fig 1a): one or more PFEs joined by
// the interconnection fabric, front-panel ports mapped onto PFEs, and the
// forwarding state (routes, nexthops, multicast groups) shared by all
// PFEs. Implements net::Node so hosts attach with net::Link.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trio/calibration.hpp"
#include "trio/fabric.hpp"
#include "trio/forwarding.hpp"
#include "trio/pfe.hpp"

namespace trio {

/// Telemetry namespace for one router inside a shared bundle. A single
/// router leaves the default scope (empty prefixes, pid base 0) and gets
/// the historical names: "router.*", "pfe0.*", trace process "pfe0".
/// Multi-router topologies (src/cluster/) give each router a scope so
/// metric names ("rack0.pfe0.*") and trace process ids never collide.
struct TelemetryScope {
  /// Added to trace_rows::pid_of_pfe(i) for every PFE of the router.
  int trace_pid_base = 0;
  /// Prepended to every metric name the router and its PFEs register.
  std::string metric_prefix;
  /// Prepended to the trace process names ("rack0." -> "rack0.pfe0").
  std::string process_prefix;
};

class Router : public net::Node {
 public:
  /// `ports_per_pfe` front-panel ports are assigned to each PFE in order:
  /// global port p lives on PFE p / ports_per_pfe. This overload binds to
  /// the shared disabled bundle (the no-observer fast path).
  Router(sim::Simulator& simulator, Calibration cal, int num_pfes,
         int ports_per_pfe, std::string name = "trio-router")
      : Router(simulator, cal, num_pfes, ports_per_pfe, telemetry::disabled(),
               std::move(name)) {}
  /// Observed router: metrics and trace events flow into `telem`, which
  /// must outlive the router. Tests assert on `telem.metrics` counters;
  /// tools export them via --metrics-out / --trace-out.
  Router(sim::Simulator& simulator, Calibration cal, int num_pfes,
         int ports_per_pfe, telemetry::Telemetry& telem,
         std::string name = "trio-router")
      : Router(simulator, cal, num_pfes, ports_per_pfe, telem,
               TelemetryScope{}, std::move(name)) {}
  /// Observed router inside a multi-router topology: like the overload
  /// above, but all telemetry is namespaced by `scope`.
  Router(sim::Simulator& simulator, Calibration cal, int num_pfes,
         int ports_per_pfe, telemetry::Telemetry& telem, TelemetryScope scope,
         std::string name = "trio-router");

  // --- net::Node ----------------------------------------------------------
  void receive(net::PacketPtr pkt, int port) override;
  std::string name() const override { return name_; }

  // --- Topology -----------------------------------------------------------
  int num_pfes() const { return static_cast<int>(pfes_.size()); }
  int ports_per_pfe() const { return ports_per_pfe_; }
  int num_ports() const { return num_pfes() * ports_per_pfe_; }
  Pfe& pfe(int i) { return *pfes_.at(static_cast<std::size_t>(i)); }
  int pfe_of_port(int global_port) const { return global_port / ports_per_pfe_; }
  int local_port(int global_port) const { return global_port % ports_per_pfe_; }

  /// Attaches the transmit side of a port to a link endpoint…
  void attach_port(int global_port, net::LinkEndpoint& tx);
  /// …or to an arbitrary sink (tests, loopbacks).
  void attach_port_sink(int global_port,
                        std::function<void(net::PacketPtr)> sink);

  // --- Forwarding ----------------------------------------------------------
  ForwardingTable& forwarding() { return fwd_; }
  Fabric& fabric() { return fabric_; }

  /// Default per-packet program: parse, TTL, LPM lookup, emit. Used by
  /// PFEs with no application program factory installed, and by
  /// factories for packets they leave to plain forwarding.
  ProgramPtr make_forwarding_program();

  /// Resolves a nexthop for a packet leaving PFE `src_pfe`. Multicast
  /// fans out here (clone per member); cross-PFE targets transit the
  /// fabric; NexthopToPfe re-enters the target PFE's ingress.
  void transmit(int src_pfe, net::PacketPtr pkt, std::uint32_t nexthop_id);

  sim::Simulator& simulator() { return sim_; }
  const Calibration& cal() const { return cal_; }
  telemetry::Telemetry& telemetry() { return telem_; }
  const TelemetryScope& telemetry_scope() const { return scope_; }
  telemetry::Registry& metrics() { return telem_.metrics; }
  telemetry::Tracer& tracer() { return telem_.tracer; }

  // --- Per-tenant egress QoS (MQSS WDRR, src/jobs/, docs/jobs.md) --------
  /// Installs `classifier` and routes every front-panel egress frame
  /// through a per-port MqssTenantScheduler. Off by default: egress then
  /// stays the historical single link FIFO.
  void enable_tenant_qos(TenantClassifier classifier);
  bool tenant_qos_enabled() const { return tenant_qos_; }
  /// Relative WDRR weight for `tenant` on every port (present and
  /// future). Requires >= 1; call in admission order for deterministic
  /// round-robin placement.
  void set_tenant_weight(std::uint8_t tenant, std::uint32_t weight);
  /// Frames dropped (tenant FIFO full) / sent for `tenant`, summed over
  /// all ports.
  std::uint64_t tenant_qos_drops(std::uint8_t tenant) const;
  std::uint64_t tenant_qos_sent(std::uint8_t tenant) const;

  // --- Fault hooks (src/faults/, docs/faults.md) -------------------------
  /// Stalls the whole forwarding plane until `t` (models a PFE
  /// stall-and-resume: microcode reload, control-plane pause). Packets
  /// arriving while stalled are held at ingress and replayed to their
  /// PFEs in arrival order at resume; nothing is lost, latency spikes.
  void stall_until(sim::Time t);
  void stall_for(sim::Duration d) { stall_until(sim_.now() + d); }
  bool stalled() const { return sim_.now() < stalled_until_; }
  std::uint64_t stalls() const { return stalls_.value(); }
  std::uint64_t stall_held_frames() const {
    return stall_held_frames_.value();
  }

  /// Hard power loss: every frame at ingress or egress is dropped (no
  /// stall-and-replay), including any frames a stall was holding. Dataplane
  /// state (aggregation buckets) is *not* cleared here — the fault injector
  /// models state loss explicitly via the hash-table generation bump so the
  /// invalidation is visible in the fault log (docs/recovery.md).
  void kill();
  /// Clears the killed flag; the router forwards again with whatever
  /// state survives (for Trio-ML, an invalidated-generation hash table).
  void revive();
  bool killed() const { return killed_; }
  std::uint64_t kills() const { return kills_.value(); }
  std::uint64_t kill_dropped_frames() const {
    return kill_dropped_frames_.value();
  }

  std::uint64_t packets_received() const { return packets_received_.value(); }
  std::uint64_t packets_transmitted() const {
    return packets_transmitted_.value();
  }
  std::uint64_t packets_discarded() const {
    return packets_discarded_.value();
  }
  std::uint64_t no_route_drops() const { return no_route_drops_.value(); }
  void count_no_route_drop() { no_route_drops_.inc(); }

 private:
  void egress_enqueue(int src_pfe, int global_port, net::PacketPtr pkt,
                      const net::MacAddr& dst_mac);
  void port_out(int global_port, net::PacketPtr pkt);
  /// The pre-QoS egress tail: kill check, tx counters, wire/sink handoff.
  void port_out_now(int global_port, net::PacketPtr pkt);
  MqssTenantScheduler* scheduler_for_port(int global_port);
  void resume_from_stall();

  sim::Simulator& sim_;
  Calibration cal_;
  int ports_per_pfe_;
  std::string name_;
  // Telemetry must precede pfes_: Pfe constructors instrument through the
  // router.
  telemetry::Telemetry& telem_;
  TelemetryScope scope_;
  ForwardingTable fwd_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Pfe>> pfes_;
  std::vector<net::LinkEndpoint*> port_tx_;
  std::vector<std::function<void(net::PacketPtr)>> port_sinks_;

  bool tenant_qos_ = false;
  TenantClassifier tenant_classifier_;
  // Lazily created per attached port; weights in registration order so
  // every scheduler builds the same round-robin sequence.
  std::vector<std::unique_ptr<MqssTenantScheduler>> port_scheds_;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> tenant_weights_;

  sim::Time stalled_until_;
  struct StalledRx {
    net::PacketPtr pkt;
    int port;
  };
  std::vector<StalledRx> stalled_rx_;
  telemetry::Counter stalls_;
  telemetry::Counter stall_held_frames_;

  bool killed_ = false;
  telemetry::Counter kills_;
  telemetry::Counter kill_dropped_frames_;

  telemetry::Counter packets_received_;
  telemetry::Counter packets_transmitted_;
  telemetry::Counter packets_discarded_;
  telemetry::Counter no_route_drops_;
};

}  // namespace trio
