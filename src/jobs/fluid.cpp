#include "jobs/fluid.hpp"

#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "trioml/addressing.hpp"

namespace jobs {
namespace {

constexpr std::size_t kFrameBytes =
    net::UdpFrameLayout::kPayloadOff + FluidController::kFramePayloadBytes;

/// Pacing interval for a re-materialised stream: one frame every
/// wire-time / load, computed from the *line* rate (the fluid demand cap
/// is load * line rate, so the two modes offer identical byte rates).
sim::Duration pace_interval(double line_gbps, double load) {
  const double wire_ns = double(kFrameBytes) * 8.0 / line_gbps;
  return sim::Duration(static_cast<std::int64_t>(wire_ns / load + 0.5));
}

}  // namespace

FluidController::FluidController(cluster::Cluster& cluster)
    : cluster_(cluster), fluid_(cluster.engine()) {
  host_up_.assign(std::size_t(cluster_.num_workers()), -1);
  trunk_up_.assign(std::size_t(cluster_.num_racks()), -1);
}

sim::FluidEngine::LinkId FluidController::map_endpoint(net::LinkEndpoint& ep,
                                                       std::vector<int>& table,
                                                       std::size_t index) {
  if (table[index] < 0) {
    const sim::FluidEngine::LinkId id = fluid_.add_link(ep.gbps());
    fluid_.set_packet_probe(id, [&ep] { return ep.bytes_sent(); });
    fluid_.set_rate_observer(id,
                             [&ep](double gbps) { ep.set_fluid_load(gbps); });
    table[index] = int(id);
  }
  return sim::FluidEngine::LinkId(table[index]);
}

void FluidController::add_background_stream(int host, std::uint8_t tenant,
                                            double load) {
  if (load <= 0.0 || load > 1.0) {
    throw std::invalid_argument("fluid stream load must be in (0, 1]");
  }
  const int wpr = cluster_.workers_per_rack();
  const int rack = host / wpr;
  const int local = host % wpr;
  net::LinkEndpoint& tx = cluster_.link(host).a_to_b();

  Stream& s = streams_.emplace_back();
  Emitter& e = s.emitter;
  e.sim = &cluster_.engine().domain_sim(std::uint32_t(rack));
  e.tx = &tx;
  e.eth_src = trioml::worker_mac(rack, local);
  e.eth_dst = trioml::aggregator_mac(rack);
  e.ip_src = trioml::worker_ip(rack, local);
  e.ip_dst = cluster_.tree().spine_ip;
  e.tenant = tenant;
  e.interval = pace_interval(tx.gbps(), load);

  const auto up = map_endpoint(tx, host_up_, std::size_t(host));
  const auto trunk = map_endpoint(cluster_.fabric_link(rack).a_to_b(),
                                  trunk_up_, std::size_t(rack));
  s.flow = fluid_.add_flow({{up, trunk}, load * tx.gbps()});
  if (packet_depth_ > 0) {
    // Born inside a packet-fidelity region: start re-materialised.
    fluid_.pause_flow(s.flow);
    e.start();
  }
}

void FluidController::enter_packet_mode() {
  if (++packet_depth_ != 1) return;
  ++transitions_;
  for (Stream& s : streams_) {
    fluid_.pause_flow(s.flow);  // accrues fluid bytes up to now first
    s.emitter.start();
  }
}

void FluidController::exit_packet_mode() {
  if (packet_depth_ == 0 || --packet_depth_ != 0) return;
  ++transitions_;
  for (Stream& s : streams_) {
    s.emitter.stop();
    fluid_.resume_flow(s.flow);
  }
}

void FluidController::observe(const faults::FaultSchedule& schedule) {
  for (const faults::PacketWindow& w : faults::packet_windows(schedule)) {
    ++windows_observed_;
    cluster_.engine().schedule_global(w.start, [this] {
      if (!stopped_) enter_packet_mode();
    });
    if (w.end == sim::Time::max()) continue;  // never clears
    sim::Time end = w.end + kWindowPadding;
    if (end <= w.start) end = w.start + sim::Duration(1);
    cluster_.engine().schedule_global(end, [this] {
      if (!stopped_) exit_packet_mode();
    });
  }
}

void FluidController::stop() {
  stopped_ = true;
  fluid_.stop();
  for (Stream& s : streams_) s.emitter.stop();
}

std::uint64_t FluidController::packet_frames() const {
  std::uint64_t n = 0;
  for (const Stream& s : streams_) n += s.emitter.frames_total;
  return n;
}

std::uint64_t FluidController::packet_bytes() const {
  std::uint64_t n = 0;
  for (const Stream& s : streams_) n += s.emitter.bytes_total;
  return n;
}

// --- Emitter ---------------------------------------------------------------

void FluidController::Emitter::start() {
  if (running) return;
  running = true;
  next = sim->schedule_at(sim->now(), [this] { emit(); });
}

void FluidController::Emitter::stop() {
  if (!running) return;
  running = false;
  sim->cancel(next);
}

void FluidController::Emitter::emit() {
  if (!running) return;
  std::vector<std::uint8_t> payload(kFramePayloadBytes, 0xbe);
  auto frame = net::build_udp_frame(eth_src, eth_dst, ip_src, ip_dst,
                                    trioml::best_effort_src_port(tenant),
                                    /*udp_dst=*/9, payload);
  tx->send(net::Packet::make(std::move(frame)));
  ++frames_total;
  bytes_total += kFrameBytes;
  next = sim->schedule_in(interval, [this] { emit(); });
}

}  // namespace jobs
