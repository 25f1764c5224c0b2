#include "jobs/best_effort.hpp"

#include <stdexcept>
#include <vector>

#include "trioml/addressing.hpp"

namespace jobs {

BestEffortSource::BestEffortSource(sim::Simulator& simulator,
                                   net::LinkEndpoint& tx, Config config)
    : sim_(simulator), tx_(tx), config_(config) {
  if (config_.load <= 0.0 || config_.load > 1.0) {
    throw std::invalid_argument("best-effort load must be in (0, 1]");
  }
  // A frame every wire-time / load: load=1.0 saturates the link. The wire
  // time is the line rate's, so fluid load on the link does not slow it.
  const auto wire = net::wire_time(kFrameBytes, tx_.gbps());
  interval_ = sim::Duration(
      static_cast<std::int64_t>(double(wire.ns()) / config_.load + 0.5));
}

void BestEffortSource::start(sim::Time at, sim::Time until) {
  if (running_) return;
  running_ = true;
  until_ = until;
  next_ = sim_.schedule_at(at < sim_.now() ? sim_.now() : at,
                           [this] { emit(); });
}

void BestEffortSource::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(next_);
}

void BestEffortSource::emit() {
  if (!running_) return;
  if (until_ != sim::Time() && sim_.now() >= until_) {
    running_ = false;
    return;
  }
  // One payload for every frame; build_udp_frame copies it in.
  static const std::vector<std::uint8_t> payload(kFramePayloadBytes, 0xbe);
  auto frame = net::build_udp_frame(
      config_.eth_src, config_.eth_dst, config_.ip_src, config_.ip_dst,
      trioml::best_effort_src_port(config_.tenant), /*udp_dst=*/9, payload);
  tx_.send(net::Packet::make(std::move(frame)));
  ++frames_offered_;
  next_ = sim_.schedule_in(interval_, [this] { emit(); });
}

}  // namespace jobs
