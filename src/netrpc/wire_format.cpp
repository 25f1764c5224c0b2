#include "netrpc/wire_format.hpp"

#include <stdexcept>

namespace netrpc {

void NetRpcHeader::write(net::Buffer& buf, std::size_t off) const {
  buf.set_u8(off, static_cast<std::uint8_t>(op));
  buf.set_u8(off + 1, tenant);
  buf.set_u8(off + 2, client_id);
  buf.set_u8(off + 3, server_id);
  buf.set_u8(off + 4, static_cast<std::uint8_t>(policy));
  buf.set_u8(off + 5, flags);
  buf.set_u8(off + 6, value_cnt);
  buf.set_u8(off + 7, server_cnt);
  buf.set_u32(off + 8, rpc_id);
  buf.set_u64(off + 12, key);
}

NetRpcHeader NetRpcHeader::parse(const net::Buffer& buf, std::size_t off) {
  NetRpcHeader h;
  h.op = static_cast<Op>(buf.u8(off));
  h.tenant = buf.u8(off + 1);
  h.client_id = buf.u8(off + 2);
  h.server_id = buf.u8(off + 3);
  h.policy = static_cast<MergePolicy>(buf.u8(off + 4));
  h.flags = buf.u8(off + 5);
  h.value_cnt = buf.u8(off + 6);
  h.server_cnt = buf.u8(off + 7);
  h.rpc_id = buf.u32(off + 8);
  h.key = buf.u64(off + 12);
  return h;
}

net::Buffer build_netrpc_frame(const net::MacAddr& eth_src,
                               const net::MacAddr& eth_dst,
                               net::Ipv4Addr ip_src, net::Ipv4Addr ip_dst,
                               std::uint16_t udp_src, std::uint16_t udp_dst,
                               const NetRpcHeader& hdr,
                               std::span<const std::uint32_t> values,
                               std::uint16_t value_words) {
  if (value_words > kMaxValueWords || values.size() > value_words) {
    throw std::invalid_argument("netrpc frame: too many value words");
  }
  net::Buffer frame =
      net::build_udp_frame(eth_src, eth_dst, ip_src, ip_dst, udp_src, udp_dst,
                           NetRpcHeader::kSize + std::size_t(value_words) * 4);
  NetRpcHeader h = hdr;
  h.value_cnt = static_cast<std::uint8_t>(value_words);
  h.write(frame, kNetRpcHdrOff);
  for (std::size_t i = 0; i < values.size(); ++i) {
    frame.set_u32le(kValueOff + i * 4, values[i]);
  }
  return frame;
}

std::uint32_t read_value(const net::Buffer& frame, std::size_t i) {
  return frame.u32le(kValueOff + i * 4);
}

void write_value(net::Buffer& frame, std::size_t i, std::uint32_t v) {
  frame.set_u32le(kValueOff + i * 4, v);
}

bool is_netrpc_frame(const net::Buffer& frame) {
  if (frame.size() < kValueOff) return false;
  const auto eth = net::EthernetHeader::parse(frame, 0);
  if (eth.ether_type != net::EthernetHeader::kEtherTypeIpv4) return false;
  const auto ip = net::Ipv4Header::parse(frame, net::UdpFrameLayout::kIpOff);
  if (ip.protocol != net::Ipv4Header::kProtoUdp) return false;
  const auto udp = net::UdpHeader::parse(frame, net::UdpFrameLayout::kUdpOff);
  return udp.dst_port == kRequestUdpPort || udp.dst_port == kResponseUdpPort;
}

}  // namespace netrpc
