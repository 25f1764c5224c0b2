// Point-to-point full-duplex link with a serialization-rate model.
//
// Each direction is an independent transmit queue: a frame occupies the
// wire for size*8/bandwidth, then arrives after the propagation delay
// (store-and-forward). A finite transmit queue drops excess frames and
// counts them, which is how loss enters the simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace sim {
class ShardedSimulator;
}

namespace net {

/// Anything that can accept a packet on a numbered port: hosts, routers,
/// switches.
class Node {
 public:
  virtual ~Node() = default;
  virtual void receive(PacketPtr pkt, int port) = 0;
  virtual std::string name() const = 0;
};

/// Two-state Markov burst-loss model (Gilbert–Elliott). The chain steps
/// once per offered frame: in the *good* state frames are lost with
/// `loss_good`, in the *bad* state with `loss_bad`; `p_enter` / `p_exit`
/// are the per-frame good→bad / bad→good transition probabilities, so the
/// mean burst length is 1/p_exit frames. Models the correlated loss that
/// i.i.d. drops cannot (docs/faults.md).
struct GilbertElliott {
  double p_enter = 0.001;
  double p_exit = 0.2;
  double loss_good = 0.0;
  double loss_bad = 1.0;
};

/// Time `bytes` occupy a wire of `gbps`, rounded to the nearest ns.
inline sim::Duration wire_time(std::size_t bytes, double gbps) {
  // bits / (Gbps) = ns exactly when bandwidth is in bits/ns.
  return sim::Duration(static_cast<std::int64_t>(
      static_cast<double>(bytes) * 8.0 / gbps + 0.5));
}

/// One direction of a link.
class LinkEndpoint {
 public:
  LinkEndpoint(sim::Simulator& simulator, double gbps,
               sim::Duration propagation, std::size_t queue_frames = 4096);

  /// Attaches the receiving side. `port` is the port number presented to
  /// the peer node's receive().
  void connect(Node& peer, int port);

  /// Marks this direction as a simulation-domain boundary (sim/shard.hpp):
  /// the receive side executes on `dst_domain`'s shard via the engine's
  /// deterministic delivery band; sender-side bookkeeping stays local.
  /// The propagation delay must be >= the engine lookahead. Boundary
  /// binding is a property of the topology, not of the shard count — a
  /// cross-domain link is bound even at 1 shard, so digests match at any
  /// shard count.
  void bind_boundary(sim::ShardedSimulator& engine, std::uint32_t src_domain,
                     std::uint32_t dst_domain) {
    engine_ = &engine;
    src_domain_ = src_domain;
    dst_domain_ = dst_domain;
  }

  /// Queues a frame for transmission. Returns false (and counts a drop)
  /// when the transmit queue is full or the frame is lost to injected
  /// random loss.
  bool send(PacketPtr pkt);

  /// Injects i.i.d. random frame loss (models transient congestion
  /// drops elsewhere in the fabric — §7 "Packet loss in Trio-ML").
  void set_loss(double probability, std::uint64_t seed = 1);

  // --- Fault hooks (src/faults/, docs/faults.md) -------------------------
  /// Administratively downs this direction (link flap): every frame
  /// offered while down is dropped and counted under down_drops().
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Enables Gilbert–Elliott burst loss. Coexists with set_loss(); the
  /// burst chain is consulted first.
  void set_burst_loss(const GilbertElliott& model, std::uint64_t seed = 1);
  void clear_burst_loss() { burst_enabled_ = false; }

  /// Frame corruption: with the given per-frame probability one payload
  /// byte of the transiting frame is XORed with a non-zero mask (drawn
  /// deterministically from `seed`). The frame still arrives — corruption
  /// stresses the receiver's parse/validation path, not delivery.
  void set_corruption(double probability, std::uint64_t seed = 1);

  std::uint64_t down_drops() const { return down_drops_.value(); }
  std::uint64_t burst_drops() const { return burst_drops_.value(); }
  std::uint64_t frames_corrupted() const { return frames_corrupted_.value(); }

  std::uint64_t frames_sent() const { return frames_sent_.value(); }
  std::uint64_t frames_dropped() const { return frames_dropped_.value(); }
  std::uint64_t bytes_sent() const { return bytes_sent_.value(); }
  double gbps() const { return gbps_; }

  // --- Conservation accounting (src/vigil/, docs/vigil.md) ---------------
  /// Frames/bytes handed to the peer's receive(). Together with
  /// frames_in_flight() these satisfy, at every instant,
  ///   frames_sent == frames_delivered + frames_in_flight
  /// which the vigil invariant engine checks on every link — a cheap
  /// always-on detector for lost or duplicated deliveries (e.g. across
  /// shard boundaries).
  std::uint64_t frames_delivered() const { return frames_delivered_.value(); }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  /// Frames serialized or propagating right now (on the wire).
  std::uint64_t frames_in_flight() const { return in_flight_; }

  // --- Fluid-share accounting (sim/fluid.hpp, docs/fluid.md) -------------
  /// Reserves `gbps` of this direction's bandwidth for fluid-modelled
  /// flows: frames serialized after this call see only the residual
  /// bandwidth, so packet latency reflects the bulk traffic that is no
  /// longer simulated frame-by-frame. Called from a FluidEngine rate
  /// observer (global-action context — every shard parked), so the wire
  /// model never changes mid-window. Clamped so at least 1% of the line
  /// rate always remains — fluid flows yield to packets, not the reverse.
  void set_fluid_load(double gbps) {
    fluid_load_gbps_ = gbps < 0 ? 0 : gbps;
  }
  double fluid_load_gbps() const { return fluid_load_gbps_; }
  /// Bandwidth frames actually see: line rate minus the fluid share.
  double effective_gbps() const {
    const double floor = gbps_ * 0.01;
    const double residual = gbps_ - fluid_load_gbps_;
    return residual > floor ? residual : floor;
  }

  /// Time the wire becomes free (>= now when busy).
  sim::Time busy_until() const { return busy_until_; }

  sim::Duration serialization_delay(std::size_t bytes) const {
    return wire_time(bytes, effective_gbps());
  }

  /// Binds this direction's counts as `<prefix>tx_frames`,
  /// `<prefix>tx_bytes`, `<prefix>rx_frames` and `<prefix>drops`, plus the
  /// fault-class breakdowns `<prefix>fault.down_drops`,
  /// `<prefix>fault.burst_drops` and `<prefix>fault.corrupt_frames`.
  void instrument(telemetry::Registry& registry, std::string_view prefix) {
    registry.bind(frames_sent_, prefix, "tx_frames");
    registry.bind(bytes_sent_, prefix, "tx_bytes");
    registry.bind(frames_delivered_, prefix, "rx_frames");
    registry.bind(frames_dropped_, prefix, "drops");
    registry.bind(down_drops_, prefix, "fault.down_drops");
    registry.bind(burst_drops_, prefix, "fault.burst_drops");
    registry.bind(frames_corrupted_, prefix, "fault.corrupt_frames");
  }

 private:
  sim::Simulator& sim_;
  double gbps_;
  sim::Duration propagation_;
  std::size_t queue_frames_;
  Node* peer_ = nullptr;
  int peer_port_ = -1;
  sim::ShardedSimulator* engine_ = nullptr;
  std::uint32_t src_domain_ = 0;
  std::uint32_t dst_domain_ = 0;
  sim::Time busy_until_;
  double fluid_load_gbps_ = 0.0;
  std::size_t in_flight_ = 0;
  telemetry::Counter frames_sent_;
  telemetry::Counter frames_dropped_;
  telemetry::Counter bytes_sent_;
  telemetry::Counter frames_delivered_;
  std::uint64_t bytes_delivered_ = 0;
  double loss_probability_ = 0.0;
  sim::Rng loss_rng_{1};
  bool down_ = false;
  bool burst_enabled_ = false;
  bool burst_bad_ = false;
  GilbertElliott burst_model_;
  sim::Rng burst_rng_{1};
  double corrupt_probability_ = 0.0;
  sim::Rng corrupt_rng_{1};
  telemetry::Counter down_drops_;
  telemetry::Counter burst_drops_;
  telemetry::Counter frames_corrupted_;
};

/// Full-duplex link: two endpoints wired between nodes a and b.
class Link {
 public:
  Link(sim::Simulator& simulator, double gbps, sim::Duration propagation,
       std::size_t queue_frames = 4096)
      : Link(simulator, simulator, gbps, propagation, queue_frames) {}

  /// A link whose two ends live in different simulation domains: each
  /// direction's transmit machinery runs on its sender's simulator. Pair
  /// with bind_boundary() so receives cross via the engine.
  Link(sim::Simulator& sim_a, sim::Simulator& sim_b, double gbps,
       sim::Duration propagation, std::size_t queue_frames = 4096)
      : a_to_b_(sim_a, gbps, propagation, queue_frames),
        b_to_a_(sim_b, gbps, propagation, queue_frames) {}

  /// Wires node a's view: frames sent via a_to_b() arrive at `b` as `port_b`.
  void attach(Node& a, int port_a, Node& b, int port_b) {
    a_to_b_.connect(b, port_b);
    b_to_a_.connect(a, port_a);
  }

  LinkEndpoint& a_to_b() { return a_to_b_; }
  LinkEndpoint& b_to_a() { return b_to_a_; }

  /// Binds both directions as a domain boundary (a lives in `domain_a`,
  /// b in `domain_b`).
  void bind_boundary(sim::ShardedSimulator& engine, std::uint32_t domain_a,
                     std::uint32_t domain_b) {
    a_to_b_.bind_boundary(engine, domain_a, domain_b);
    b_to_a_.bind_boundary(engine, domain_b, domain_a);
  }

  /// Injects i.i.d. random loss on both directions (decorrelated seeds).
  void set_loss(double probability, std::uint64_t seed = 1) {
    a_to_b_.set_loss(probability, seed);
    b_to_a_.set_loss(probability, seed + 0x9e3779b97f4a7c15ull);
  }

  /// Fault hooks on both directions at once (decorrelated seeds).
  void set_down(bool down) {
    a_to_b_.set_down(down);
    b_to_a_.set_down(down);
  }
  void set_burst_loss(const GilbertElliott& model, std::uint64_t seed = 1) {
    a_to_b_.set_burst_loss(model, seed);
    b_to_a_.set_burst_loss(model, seed + 0x9e3779b97f4a7c15ull);
  }
  void set_corruption(double probability, std::uint64_t seed = 1) {
    a_to_b_.set_corruption(probability, seed);
    b_to_a_.set_corruption(probability, seed + 0x9e3779b97f4a7c15ull);
  }

 private:
  LinkEndpoint a_to_b_;
  LinkEndpoint b_to_a_;
};

}  // namespace net
