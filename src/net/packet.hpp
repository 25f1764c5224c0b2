// Packet representation with Trio's head/tail split.
//
// Trio's PFE hardware divides every arriving packet into a *head* (the
// first kHeadSize bytes — 192 in the generation the paper's Fig. 10
// describes) that is handed to a PPE thread's local memory, and a *tail*
// (the remainder) parked in the Memory & Queueing Subsystem's packet
// buffer. The Packet type keeps the full frame in one Buffer and exposes
// the split; the Mqss models where the tail bytes physically live.
#pragma once

#include <cstdint>
#include <memory>

#include "net/buffer.hpp"
#include "net/headers.hpp"
#include "sim/recycler.hpp"
#include "sim/time.hpp"

namespace net {

class Packet;
using PacketPtr = std::shared_ptr<Packet>;

class Packet {
 public:
  /// Trio head size used throughout this repo (Fig. 10: "the first 192
  /// bytes of the packet").
  static constexpr std::size_t kHeadSize = 192;

  explicit Packet(Buffer frame) : frame_(std::move(frame)) {}

  /// The shared_ptr control block and the Packet live in one cell from
  /// the thread-local recycler, as do the frame's bytes, so steady-state
  /// packet churn never touches the allocator (docs/performance.md).
  /// Pass an lvalue to copy the frame, an rvalue to move it.
  static PacketPtr make(Buffer frame) {
    return std::allocate_shared<Packet>(sim::RecyclingAllocator<Packet>{},
                                        std::move(frame));
  }

  const Buffer& frame() const { return frame_; }
  Buffer& frame() { return frame_; }

  std::size_t size() const { return frame_.size(); }

  /// Bytes in the head (<= kHeadSize).
  std::size_t head_size() const {
    return frame_.size() < kHeadSize ? frame_.size() : kHeadSize;
  }
  /// Bytes in the tail (0 when the whole packet fits in the head).
  std::size_t tail_size() const { return frame_.size() - head_size(); }
  bool has_tail() const { return tail_size() > 0; }

  // -- Metadata carried alongside the frame (not on the wire) -------------

  /// When the packet entered its current PFE (Pfe::ingress).
  sim::Time arrival_time() const { return arrival_time_; }
  void set_arrival_time(sim::Time t) { arrival_time_ = t; }

 private:
  Buffer frame_;
  sim::Time arrival_time_;
};

/// Convenience builder for Ethernet+IPv4+UDP frames, used by hosts and
/// tests. `payload` becomes the UDP payload.
Buffer build_udp_frame(const MacAddr& eth_src, const MacAddr& eth_dst,
                       Ipv4Addr ip_src, Ipv4Addr ip_dst,
                       std::uint16_t udp_src, std::uint16_t udp_dst,
                       std::span<const std::uint8_t> payload);
/// The same frame with `payload_len` zero bytes of payload, for builders
/// that write their payload in place.
Buffer build_udp_frame(const MacAddr& eth_src, const MacAddr& eth_dst,
                       Ipv4Addr ip_src, Ipv4Addr ip_dst,
                       std::uint16_t udp_src, std::uint16_t udp_dst,
                       std::size_t payload_len);

/// Offsets of the standard headers in frames built by build_udp_frame.
struct UdpFrameLayout {
  static constexpr std::size_t kEthOff = 0;
  static constexpr std::size_t kIpOff = EthernetHeader::kSize;
  static constexpr std::size_t kUdpOff = kIpOff + Ipv4Header::kSize;
  static constexpr std::size_t kPayloadOff = kUdpOff + UdpHeader::kSize;  // 42
};

}  // namespace net
