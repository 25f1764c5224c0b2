#include "jobs/fluid.hpp"

#include <stdexcept>
#include <vector>

#include "trioml/addressing.hpp"

namespace jobs {

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

  BestEffortSource::Config bc;
  bc.tenant = tenant;
  bc.eth_src = trioml::worker_mac(rack, local);
  bc.eth_dst = trioml::aggregator_mac(rack);
  bc.ip_src = trioml::worker_ip(rack, local);
  bc.ip_dst = cluster_.tree().spine_ip;
  bc.load = load;

  const auto up = map_endpoint(tx, host_up_, std::size_t(host));
  const auto trunk = map_endpoint(cluster_.fabric_link(rack).a_to_b(),
                                  trunk_up_, std::size_t(rack));
  Stream& s = streams_.emplace_back(
      fluid_.add_flow({{up, trunk}, load * tx.gbps()}),
      BestEffortSource(cluster_.engine().domain_sim(std::uint32_t(rack)), tx,
                       bc));
  if (packet_depth_ > 0) {
    // Born inside a packet-fidelity region: start re-materialised.
    fluid_.pause_flow(s.flow);
    s.source.start(cluster_.engine().now());
  }
}

void FluidController::enter_packet_mode() {
  if (++packet_depth_ != 1) return;
  ++transitions_;
  for (Stream& s : streams_) {
    fluid_.pause_flow(s.flow);  // accrues fluid bytes up to now first
    s.source.start(cluster_.engine().now());
  }
}

void FluidController::exit_packet_mode() {
  if (packet_depth_ == 0 || --packet_depth_ != 0) return;
  ++transitions_;
  for (Stream& s : streams_) {
    s.source.stop();
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
  for (Stream& s : streams_) s.source.stop();
}

std::uint64_t FluidController::packet_frames() const {
  std::uint64_t n = 0;
  for (const Stream& s : streams_) n += s.source.frames_offered();
  return n;
}

}  // namespace jobs
