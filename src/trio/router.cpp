#include "trio/router.hpp"

#include <stdexcept>

namespace trio {

namespace {

/// The default IP forwarding Microcode path, as a native program: parse
/// the Ethernet and IPv4 headers out of LMEM, decrement TTL, consult the
/// FIB (one shared-memory access models the lookup walk), emit via the
/// resolved nexthop. Non-IP and routeless packets are dropped.
class ForwardingProgram : public PpeProgram {
 public:
  explicit ForwardingProgram(Router& router) : router_(router) {}

  Action step(ThreadContext& ctx) override {
    switch (state_) {
      case State::kParse: {
        const auto eth = net::EthernetHeader::parse(ctx.lmem, 0);
        if (eth.ether_type != net::EthernetHeader::kEtherTypeIpv4) {
          state_ = State::kDone;
          return ActExit{6};
        }
        auto ip = net::Ipv4Header::parse(ctx.lmem, net::UdpFrameLayout::kIpOff);
        if (ip.ttl <= 1) {
          state_ = State::kDone;
          return ActExit{8};
        }
        dst_ = ip.dst;
        // Rewrite TTL in the packet head (LMEM and the frame copy).
        ctx.lmem.set_u8(net::UdpFrameLayout::kIpOff + 8,
                        static_cast<std::uint8_t>(ip.ttl - 1));
        ctx.packet->frame().set_u8(net::UdpFrameLayout::kIpOff + 8,
                                   static_cast<std::uint8_t>(ip.ttl - 1));
        state_ = State::kLookup;
        // Route lookup: the table walk is a shared-memory transaction.
        XtxnRequest req;
        req.op = XtxnOp::kRead;
        req.addr = 0;  // FIB root (timing model; resolution is functional)
        req.len = 8;
        return ActSyncXtxn{std::move(req), 14};
      }
      case State::kLookup: {
        const auto nh = router_.forwarding().lookup(dst_);
        if (!nh) {
          router_.count_no_route_drop();
          state_ = State::kDone;
          return ActExit{4};
        }
        state_ = State::kDone;
        return ActEmitPacket{ctx.packet, *nh, 8};
      }
      case State::kDone:
      default:
        return ActExit{1};
    }
  }

 private:
  enum class State { kParse, kLookup, kDone };
  Router& router_;
  State state_ = State::kParse;
  net::Ipv4Addr dst_;
};

}  // namespace

Router::Router(sim::Simulator& simulator, Calibration cal, int num_pfes,
               int ports_per_pfe, telemetry::Telemetry& telem,
               TelemetryScope scope, std::string name)
    : sim_(simulator),
      cal_(cal),
      ports_per_pfe_(ports_per_pfe),
      name_(std::move(name)),
      telem_(telem),
      scope_(std::move(scope)),
      fabric_(simulator, cal_, num_pfes) {
  if (num_pfes <= 0 || ports_per_pfe_ <= 0) {
    throw std::invalid_argument("Router: need at least one PFE and port");
  }
  telemetry::Registry& m = telem_.metrics;
  const std::string& prefix = scope_.metric_prefix;
  m.bind(packets_received_, prefix, "router.packets_received");
  m.bind(packets_transmitted_, prefix, "router.packets_transmitted");
  m.bind(packets_discarded_, prefix, "router.packets_discarded");
  m.bind(no_route_drops_, prefix, "router.no_route_drops");
  m.bind(stalls_, prefix, "router.stalls");
  m.bind(stall_held_frames_, prefix, "router.stall_held_frames");
  m.bind(kills_, prefix, "router.kills");
  m.bind(kill_dropped_frames_, prefix, "router.kill_dropped_frames");
  for (int i = 0; i < num_pfes; ++i) {
    pfes_.push_back(std::make_unique<Pfe>(sim_, cal_, *this, i));
  }
  port_tx_.resize(static_cast<std::size_t>(num_ports()), nullptr);
  port_sinks_.resize(static_cast<std::size_t>(num_ports()));
}

void Router::receive(net::PacketPtr pkt, int port) {
  if (port < 0 || port >= num_ports()) {
    throw std::out_of_range("Router::receive: bad port");
  }
  if (killed_) {
    kill_dropped_frames_.inc();
    return;
  }
  packets_received_.inc();
  if (sim_.now() < stalled_until_) {
    stall_held_frames_.inc();
    stalled_rx_.push_back(StalledRx{std::move(pkt), port});
    return;
  }
  pfe(pfe_of_port(port)).ingress(std::move(pkt));
}

void Router::stall_until(sim::Time t) {
  if (t <= stalled_until_ || t <= sim_.now()) return;
  const bool was_stalled = sim_.now() < stalled_until_;
  stalled_until_ = t;
  stalls_.inc();
  if (!was_stalled) {
    sim_.schedule_at(t, [this] { resume_from_stall(); });
  }
}

void Router::resume_from_stall() {
  if (sim_.now() < stalled_until_) {
    // The stall was extended after this resume event was armed.
    sim_.schedule_at(stalled_until_, [this] { resume_from_stall(); });
    return;
  }
  std::vector<StalledRx> held;
  held.swap(stalled_rx_);
  for (StalledRx& rx : held) {
    pfe(pfe_of_port(rx.port)).ingress(std::move(rx.pkt));
  }
}

void Router::kill() {
  if (killed_) return;
  killed_ = true;
  kills_.inc();
  // Frames a stall was holding for replay die with the router.
  kill_dropped_frames_.inc(stalled_rx_.size());
  stalled_rx_.clear();
}

void Router::revive() { killed_ = false; }

void Router::attach_port(int global_port, net::LinkEndpoint& tx) {
  port_tx_.at(static_cast<std::size_t>(global_port)) = &tx;
}

void Router::attach_port_sink(int global_port,
                              std::function<void(net::PacketPtr)> sink) {
  port_sinks_.at(static_cast<std::size_t>(global_port)) = std::move(sink);
}

ProgramPtr Router::make_forwarding_program() {
  return std::make_unique<ForwardingProgram>(*this);
}

void Router::transmit(int src_pfe, net::PacketPtr pkt,
                      std::uint32_t nexthop_id) {
  const Nexthop& nh = fwd_.nexthop(nexthop_id);
  if (const auto* uc = std::get_if<NexthopUnicast>(&nh)) {
    egress_enqueue(src_pfe, uc->port, std::move(pkt), uc->mac);
  } else if (const auto* mc = std::get_if<NexthopMulticast>(&nh)) {
    // Replication: each member gets its own copy of the frame.
    for (std::uint32_t member : mc->members) {
      transmit(src_pfe, net::Packet::make(pkt->frame()), member);
    }
  } else if (const auto* tp = std::get_if<NexthopToPfe>(&nh)) {
    // Hierarchical aggregation: hand the packet to the target PFE for
    // *processing*, bypassing IP forwarding (paper §4).
    Pfe& dst = pfe(tp->pfe);
    fabric_.send(src_pfe, std::move(pkt),
                 [&dst](net::PacketPtr p) { dst.ingress(std::move(p)); });
  } else {
    packets_discarded_.inc();
  }
}

void Router::egress_enqueue(int src_pfe, int global_port, net::PacketPtr pkt,
                            const net::MacAddr& dst_mac) {
  if (global_port < 0 || global_port >= num_ports()) {
    packets_discarded_.inc();
    return;
  }
  // Egress rewrite: destination MAC from the nexthop.
  pkt->frame().write(0, dst_mac);

  const int dst_pfe = pfe_of_port(global_port);
  if (dst_pfe == src_pfe) {
    port_out(global_port, std::move(pkt));
  } else {
    fabric_.send(src_pfe, std::move(pkt),
                 [this, global_port](net::PacketPtr p) {
                   port_out(global_port, std::move(p));
                 });
  }
}

void Router::enable_tenant_qos(TenantClassifier classifier) {
  if (!classifier) {
    throw std::invalid_argument("Router::enable_tenant_qos: null classifier");
  }
  tenant_qos_ = true;
  tenant_classifier_ = std::move(classifier);
  port_scheds_.resize(static_cast<std::size_t>(num_ports()));
}

void Router::set_tenant_weight(std::uint8_t tenant, std::uint32_t weight) {
  if (weight == 0) {
    throw std::invalid_argument("Router::set_tenant_weight: zero weight");
  }
  bool found = false;
  for (auto& [t, w] : tenant_weights_) {
    if (t == tenant) {
      w = weight;
      found = true;
      break;
    }
  }
  if (!found) tenant_weights_.emplace_back(tenant, weight);
  for (auto& sched : port_scheds_) {
    if (sched) sched->set_weight(tenant, weight);
  }
}

std::uint64_t Router::tenant_qos_drops(std::uint8_t tenant) const {
  std::uint64_t n = 0;
  for (const auto& sched : port_scheds_) {
    if (sched) n += sched->drops(tenant);
  }
  return n;
}

std::uint64_t Router::tenant_qos_sent(std::uint8_t tenant) const {
  std::uint64_t n = 0;
  for (const auto& sched : port_scheds_) {
    if (sched) n += sched->sent(tenant);
  }
  return n;
}

MqssTenantScheduler* Router::scheduler_for_port(int global_port) {
  const auto p = static_cast<std::size_t>(global_port);
  if (port_scheds_[p]) return port_scheds_[p].get();
  auto* tx = port_tx_[p];
  if (tx == nullptr) return nullptr;  // sinks are zero-time: no contention
  port_scheds_[p] = std::make_unique<MqssTenantScheduler>(
      sim_, *tx,
      [this, global_port](net::PacketPtr pkt) {
        port_out_now(global_port, std::move(pkt));
      });
  for (const auto& [t, w] : tenant_weights_) {
    port_scheds_[p]->set_weight(t, w);
  }
  return port_scheds_[p].get();
}

void Router::port_out(int global_port, net::PacketPtr pkt) {
  if (tenant_qos_) {
    MqssTenantScheduler* sched = scheduler_for_port(global_port);
    if (sched != nullptr) {
      const std::uint8_t tenant = tenant_classifier_(*pkt);
      if (!sched->enqueue(tenant, std::move(pkt))) {
        packets_discarded_.inc();
      }
      return;
    }
  }
  port_out_now(global_port, std::move(pkt));
}

void Router::port_out_now(int global_port, net::PacketPtr pkt) {
  if (killed_) {
    // In-flight work (fabric transits, PPE emits) racing the kill instant
    // is dropped at the egress point, like a pulled line card.
    kill_dropped_frames_.inc();
    (void)pkt;
    return;
  }
  packets_transmitted_.inc();
  auto* tx = port_tx_[static_cast<std::size_t>(global_port)];
  if (tx != nullptr) {
    tx->send(std::move(pkt));
    return;
  }
  auto& sink = port_sinks_[static_cast<std::size_t>(global_port)];
  if (sink) {
    sink(std::move(pkt));
    return;
  }
  packets_discarded_.inc();  // unattached port
}

}  // namespace trio
