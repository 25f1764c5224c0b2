#include "pisa/switch.hpp"

#include <stdexcept>

namespace pisa {

Switch::Switch(sim::Simulator& simulator, const SwitchConfig& config,
               std::string name)
    : sim_(simulator), config_(config), name_(std::move(name)) {
  if (config.pipelines <= 0 || config.ports_per_pipeline <= 0) {
    throw std::invalid_argument("pisa::Switch: bad geometry");
  }
  for (int i = 0; i < config.pipelines; ++i) {
    pipes_.push_back(std::make_unique<Pipeline>(simulator, config.pipeline));
    pipes_.back()->set_deparser([this](Phv&& phv) { egress(std::move(phv)); });
  }
  port_tx_.resize(static_cast<std::size_t>(num_ports()), nullptr);
  port_sinks_.resize(static_cast<std::size_t>(num_ports()));
}

void Switch::receive(net::PacketPtr pkt, int port) {
  if (port < 0 || port >= num_ports()) {
    throw std::out_of_range("pisa::Switch::receive: bad port");
  }
  ++packets_received_;
  pipes_[static_cast<std::size_t>(pipeline_of_port(port))]->inject(
      std::move(pkt));
}

void Switch::attach_port(int port, net::LinkEndpoint& tx) {
  port_tx_.at(static_cast<std::size_t>(port)) = &tx;
}

void Switch::attach_port_sink(int port,
                              std::function<void(net::PacketPtr)> sink) {
  port_sinks_.at(static_cast<std::size_t>(port)) = std::move(sink);
}

void Switch::set_mcast_group(std::uint32_t group, std::vector<int> ports) {
  if (mcast_groups_.size() <= group) mcast_groups_.resize(group + 1);
  mcast_groups_[group] = std::move(ports);
}

void Switch::egress(Phv&& phv) {
  if (phv.drop) return;
  if (phv.mcast_group != 0) {
    if (phv.mcast_group >= mcast_groups_.size()) return;
    for (int port : mcast_groups_[phv.mcast_group]) {
      port_out(port, net::Packet::make(phv.packet->frame()));
    }
    return;
  }
  if (phv.egress_port >= 0) port_out(phv.egress_port, std::move(phv.packet));
}

void Switch::port_out(int port, net::PacketPtr pkt) {
  if (port < 0 || port >= num_ports()) return;
  ++packets_transmitted_;
  auto* tx = port_tx_[static_cast<std::size_t>(port)];
  if (tx != nullptr) {
    tx->send(std::move(pkt));
    return;
  }
  auto& sink = port_sinks_[static_cast<std::size_t>(port)];
  if (sink) sink(std::move(pkt));
}

}  // namespace pisa
