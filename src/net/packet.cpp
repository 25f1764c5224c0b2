#include "net/packet.hpp"

namespace net {

Buffer build_udp_frame(const MacAddr& eth_src, const MacAddr& eth_dst,
                       Ipv4Addr ip_src, Ipv4Addr ip_dst,
                       std::uint16_t udp_src, std::uint16_t udp_dst,
                       std::span<const std::uint8_t> payload) {
  Buffer buf = build_udp_frame(eth_src, eth_dst, ip_src, ip_dst, udp_src,
                               udp_dst, payload.size());
  buf.write(UdpFrameLayout::kPayloadOff, payload);
  return buf;
}

Buffer build_udp_frame(const MacAddr& eth_src, const MacAddr& eth_dst,
                       Ipv4Addr ip_src, Ipv4Addr ip_dst,
                       std::uint16_t udp_src, std::uint16_t udp_dst,
                       std::size_t payload_len) {
  Buffer buf(UdpFrameLayout::kPayloadOff + payload_len);

  EthernetHeader eth;
  eth.src = eth_src;
  eth.dst = eth_dst;
  eth.ether_type = EthernetHeader::kEtherTypeIpv4;
  eth.write(buf, UdpFrameLayout::kEthOff);

  Ipv4Header ip;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.protocol = Ipv4Header::kProtoUdp;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + payload_len);
  ip.write(buf, UdpFrameLayout::kIpOff);

  UdpHeader udp;
  udp.src_port = udp_src;
  udp.dst_port = udp_dst;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_len);
  udp.write(buf, UdpFrameLayout::kUdpOff);
  return buf;
}

}  // namespace net
