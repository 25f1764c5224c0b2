#include "trioml/wire_format.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "net/headers.hpp"
#include "netrpc/wire_format.hpp"
#include "trioml/addressing.hpp"

namespace trioml {

// Gradients travel little-endian, the host's own order, so a payload is
// copied as one span.
static_assert(std::endian::native == std::endian::little);

void TrioMlHeader::write(net::Buffer& buf, std::size_t off) const {
  if (grad_cnt > 0xfff) {
    throw std::invalid_argument("TrioMlHeader: grad_cnt exceeds 12 bits");
  }
  buf.set_u8(off, job_id);
  buf.set_u32(off + 1, block_id);
  // age_op:4 final:1 degraded:1 pad:2
  buf.set_u8(off + 5,
             static_cast<std::uint8_t>((age_op & 0xf) << 4 |
                                       (final_block ? 1 : 0) << 3 |
                                       (degraded ? 1 : 0) << 2));
  buf.set_u8(off + 6, src_id);
  buf.set_u8(off + 7, src_cnt);
  buf.set_u16(off + 8, gen_id);
  // pad:4 grad_cnt:12
  buf.set_u16(off + 10, static_cast<std::uint16_t>(grad_cnt & 0xfff));
}

TrioMlHeader TrioMlHeader::parse(const net::Buffer& buf, std::size_t off) {
  TrioMlHeader h;
  h.job_id = buf.u8(off);
  h.block_id = buf.u32(off + 1);
  const std::uint8_t flags = buf.u8(off + 5);
  h.age_op = flags >> 4;
  h.final_block = (flags >> 3 & 1) != 0;
  h.degraded = (flags >> 2 & 1) != 0;
  h.src_id = buf.u8(off + 6);
  h.src_cnt = buf.u8(off + 7);
  h.gen_id = buf.u16(off + 8);
  h.grad_cnt = static_cast<std::uint16_t>(buf.u16(off + 10) & 0xfff);
  return h;
}

net::Buffer build_aggregation_frame(const net::MacAddr& eth_src,
                                    const net::MacAddr& eth_dst,
                                    net::Ipv4Addr ip_src, net::Ipv4Addr ip_dst,
                                    std::uint16_t udp_src_port,
                                    const TrioMlHeader& hdr,
                                    std::span<const std::uint32_t> gradients) {
  if (gradients.size() > kMaxGradsPerPacket) {
    throw std::invalid_argument("too many gradients for one packet");
  }
  net::Buffer frame = net::build_udp_frame(
      eth_src, eth_dst, ip_src, ip_dst, udp_src_port, kTrioMlUdpPort,
      TrioMlHeader::kSize + gradients.size_bytes());
  TrioMlHeader h = hdr;
  h.grad_cnt = static_cast<std::uint16_t>(gradients.size());
  h.write(frame, kTrioMlHdrOff);
  frame.write(kGradOff,
              {reinterpret_cast<const std::uint8_t*>(gradients.data()),
               gradients.size_bytes()});
  return frame;
}

std::uint32_t read_gradient(const net::Buffer& frame, std::size_t i) {
  return frame.u32le(kGradOff + i * 4);
}

void write_gradient(net::Buffer& frame, std::size_t i, std::uint32_t v) {
  frame.set_u32le(kGradOff + i * 4, v);
}

std::int32_t quantize(float value, float scale) {
  const float scaled = value * scale;
  if (scaled >= 2147483647.0f) return 2147483647;
  if (scaled <= -2147483648.0f) return -2147483647 - 1;
  return static_cast<std::int32_t>(std::lround(scaled));
}

float dequantize(std::int32_t value, float scale) {
  return static_cast<float>(value) / scale;
}

std::uint8_t tenant_of_frame(const net::Buffer& frame) {
  if (frame.size() < net::UdpFrameLayout::kPayloadOff) return 0;
  const auto eth = net::EthernetHeader::parse(frame, 0);
  if (eth.ether_type != net::EthernetHeader::kEtherTypeIpv4) return 0;
  const auto ip = net::Ipv4Header::parse(frame, net::UdpFrameLayout::kIpOff);
  if (ip.protocol != net::Ipv4Header::kProtoUdp) return 0;
  const auto udp = net::UdpHeader::parse(frame, net::UdpFrameLayout::kUdpOff);
  if (udp.dst_port == kTrioMlUdpPort &&
      frame.size() >= kTrioMlHdrOff + TrioMlHeader::kSize) {
    return frame.u8(kTrioMlHdrOff);  // TrioMlHeader.job_id
  }
  if (udp.src_port >= kBestEffortPortBase &&
      udp.src_port < kBestEffortPortBase + 256) {
    return static_cast<std::uint8_t>(udp.src_port - kBestEffortPortBase);
  }
  // NetRPC traffic (src/netrpc/wire_format.hpp): requests on dst 12100,
  // responses on dst 12101, tenant id one byte into the NetRPC header.
  if ((udp.dst_port == netrpc::kRequestUdpPort ||
       udp.dst_port == netrpc::kResponseUdpPort) &&
      frame.size() >= netrpc::kNetRpcHdrOff + netrpc::NetRpcHeader::kSize) {
    return frame.u8(netrpc::kNetRpcHdrOff + 1);
  }
  return 0;
}

}  // namespace trioml
