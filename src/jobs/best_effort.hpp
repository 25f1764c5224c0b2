// BestEffortSource: a tenant that is pure load.
//
// Models a noisy neighbour sharing the fabric with Trio-ML jobs: a
// paced UDP stream injected on one worker's host link, addressed to the
// spine's aggregation IP on a non-Trio-ML port so the spine discards it
// (no route for the re-written destination) after it has burned host-link
// and leaf->spine trunk bandwidth. Source port 30000+tenant makes the
// stream classifiable by trioml::tenant_of_frame, so MQSS tenant QoS can
// confine it to its WDRR share.
#pragma once

#include <cstdint>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace jobs {

class BestEffortSource {
 public:
  /// UDP payload of every frame, and the frame's bytes on the wire.
  static constexpr std::size_t kFramePayloadBytes = 1400;
  static constexpr std::size_t kFrameBytes =
      net::UdpFrameLayout::kPayloadOff + kFramePayloadBytes;

  struct Config {
    std::uint8_t tenant = 0;
    net::MacAddr eth_src{};
    net::MacAddr eth_dst{};
    net::Ipv4Addr ip_src;
    net::Ipv4Addr ip_dst;
    /// Offered load as a fraction of the injection link's line rate.
    double load = 1.0;
  };

  BestEffortSource(sim::Simulator& simulator, net::LinkEndpoint& tx,
                   Config config);

  /// Starts the paced stream at `at`; runs until stop() or `until`
  /// (Time() = forever).
  void start(sim::Time at, sim::Time until = sim::Time());
  void stop();
  bool running() const { return running_; }

  std::uint64_t frames_offered() const { return frames_offered_; }

 private:
  void emit();

  sim::Simulator& sim_;
  net::LinkEndpoint& tx_;
  Config config_;
  sim::Duration interval_;
  sim::Time until_;
  bool running_ = false;
  sim::EventId next_{};
  std::uint64_t frames_offered_ = 0;
};

}  // namespace jobs
