#include "net/link.hpp"

#include <stdexcept>
#include <utility>

#include "sim/shard.hpp"

namespace net {

LinkEndpoint::LinkEndpoint(sim::Simulator& simulator, double gbps,
                           sim::Duration propagation,
                           std::size_t queue_frames)
    : sim_(simulator),
      gbps_(gbps),
      propagation_(propagation),
      queue_frames_(queue_frames) {
  if (gbps <= 0.0) {
    throw std::invalid_argument("LinkEndpoint: bandwidth must be positive");
  }
}

void LinkEndpoint::connect(Node& peer, int port) {
  peer_ = &peer;
  peer_port_ = port;
}

void LinkEndpoint::set_loss(double probability, std::uint64_t seed) {
  loss_probability_ = probability;
  loss_rng_.reseed(seed);
}

void LinkEndpoint::set_burst_loss(const GilbertElliott& model,
                                  std::uint64_t seed) {
  burst_enabled_ = true;
  burst_bad_ = false;
  burst_model_ = model;
  burst_rng_.reseed(seed);
}

void LinkEndpoint::set_corruption(double probability, std::uint64_t seed) {
  corrupt_probability_ = probability;
  corrupt_rng_.reseed(seed);
}

bool LinkEndpoint::send(PacketPtr pkt) {
  if (peer_ == nullptr) {
    throw std::logic_error("LinkEndpoint::send: endpoint not connected");
  }
  if (down_) {
    frames_dropped_.inc();
    down_drops_.inc();
    return false;
  }
  if (burst_enabled_) {
    // Step the Gilbert–Elliott chain once per offered frame, then draw
    // the loss in the (possibly new) state.
    if (burst_bad_) {
      if (burst_rng_.bernoulli(burst_model_.p_exit)) burst_bad_ = false;
    } else {
      if (burst_rng_.bernoulli(burst_model_.p_enter)) burst_bad_ = true;
    }
    const double p =
        burst_bad_ ? burst_model_.loss_bad : burst_model_.loss_good;
    if (p > 0.0 && burst_rng_.bernoulli(p)) {
      frames_dropped_.inc();
      burst_drops_.inc();
      return false;
    }
  }
  if (in_flight_ >= queue_frames_ ||
      (loss_probability_ > 0.0 && loss_rng_.bernoulli(loss_probability_))) {
    frames_dropped_.inc();
    return false;
  }
  if (corrupt_probability_ > 0.0 &&
      corrupt_rng_.bernoulli(corrupt_probability_) && pkt->size() > 0) {
    // XOR one byte past the Ethernet header (when the frame has one) with
    // a non-zero mask; the receiver sees a damaged but delivered frame.
    const std::size_t lo =
        pkt->size() > EthernetHeader::kSize ? EthernetHeader::kSize : 0;
    const std::size_t off =
        lo + static_cast<std::size_t>(
                 corrupt_rng_.next_below(pkt->size() - lo));
    const auto mask = static_cast<std::uint8_t>(
        1 + corrupt_rng_.next_below(255));
    pkt->frame().set_u8(off, pkt->frame().u8(off) ^ mask);
    frames_corrupted_.inc();
  }
  const sim::Time start =
      busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const sim::Time tx_end = start + serialization_delay(pkt->size());
  busy_until_ = tx_end;
  ++in_flight_;
  frames_sent_.inc();
  bytes_sent_.inc(pkt->size());

  Node* peer = peer_;
  const int port = peer_port_;
  const sim::Time arrive = tx_end + propagation_;
  const std::uint32_t frame_bytes = std::uint32_t(pkt->size());
  if (engine_ != nullptr) {
    // Domain boundary: the wire bookkeeping stays on the sender's shard;
    // the receive crosses via the engine's delivery band, which totals
    // orders it by (arrival, source domain, sequence) at any shard count.
    auto wire_done = [this, frame_bytes] {
      --in_flight_;
      frames_delivered_.inc();
      bytes_delivered_ += frame_bytes;
    };
    auto receive = [peer, port, pkt = std::move(pkt)]() mutable {
      peer->receive(std::move(pkt), port);
    };
    static_assert(sim::InlineCallback::stores_inline<decltype(wire_done)>());
    static_assert(sim::InlineCallback::stores_inline<decltype(receive)>());
    sim_.schedule_at(arrive, std::move(wire_done));
    engine_->post(src_domain_, dst_domain_, arrive, std::move(receive));
    return true;
  }
  auto deliver = [this, peer, port, frame_bytes,
                  pkt = std::move(pkt)]() mutable {
    --in_flight_;
    frames_delivered_.inc();
    bytes_delivered_ += frame_bytes;
    peer->receive(std::move(pkt), port);
  };
  static_assert(sim::InlineCallback::stores_inline<decltype(deliver)>());
  sim_.schedule_at(arrive, std::move(deliver));
  return true;
}

}  // namespace net
