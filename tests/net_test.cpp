#include <gtest/gtest.h>

#include <limits>

#include "net/buffer.hpp"
#include "net/headers.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace {

TEST(Buffer, BigEndianRoundTrip) {
  net::Buffer b(16);
  b.set_u16(0, 0x1234);
  b.set_u32(2, 0xdeadbeef);
  b.set_u64(6, 0x0102030405060708ull);
  EXPECT_EQ(b.u16(0), 0x1234);
  EXPECT_EQ(b.u32(2), 0xdeadbeefu);
  EXPECT_EQ(b.u64(6), 0x0102030405060708ull);
  EXPECT_EQ(b.u8(0), 0x12);  // network order: MSB first
}

TEST(Buffer, LittleEndian32) {
  net::Buffer b(8);
  b.set_u32le(0, 0x11223344);
  EXPECT_EQ(b.u8(0), 0x44);
  EXPECT_EQ(b.u32le(0), 0x11223344u);
}

TEST(Buffer, BoundsChecked) {
  net::Buffer b(4);
  EXPECT_THROW(b.u32(1), std::out_of_range);
  EXPECT_THROW(b.set_u8(4, 0), std::out_of_range);
  EXPECT_THROW(b.view(2, 3), std::out_of_range);
  // off + len wraps around to a small number.
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(b.view(2, huge), std::out_of_range);
  EXPECT_THROW(b.u32(huge - 1), std::out_of_range);
  EXPECT_NO_THROW(b.u32(0));
}

TEST(Buffer, HexDump) {
  net::Buffer b(2);
  b.set_u8(0, 0xab);
  b.set_u8(1, 0x01);
  EXPECT_EQ(b.hex(), "ab01");
}

TEST(Ipv4Addr, StringRoundTrip) {
  const auto a = net::Ipv4Addr::from_string("10.1.2.3");
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(a.value(), 0x0a010203u);
  EXPECT_THROW(net::Ipv4Addr::from_string("1.2.3.999"),
               std::invalid_argument);
  EXPECT_THROW(net::Ipv4Addr::from_string("nonsense"), std::invalid_argument);
}

TEST(Ipv4Addr, MulticastRange) {
  EXPECT_TRUE(net::Ipv4Addr::from_string("239.0.0.1").is_multicast());
  EXPECT_TRUE(net::Ipv4Addr::from_string("224.0.0.0").is_multicast());
  EXPECT_FALSE(net::Ipv4Addr::from_string("10.0.0.1").is_multicast());
  EXPECT_FALSE(net::Ipv4Addr::from_string("240.0.0.1").is_multicast());
}

TEST(Headers, EthernetRoundTrip) {
  net::Buffer b(14);
  net::EthernetHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {7, 8, 9, 10, 11, 12};
  h.ether_type = 0x0800;
  h.write(b, 0);
  const auto p = net::EthernetHeader::parse(b, 0);
  EXPECT_EQ(p.dst, h.dst);
  EXPECT_EQ(p.src, h.src);
  EXPECT_EQ(p.ether_type, 0x0800);
}

TEST(Headers, Ipv4ChecksumValidates) {
  net::Buffer b(20);
  net::Ipv4Header h;
  h.src = net::Ipv4Addr::from_string("10.0.0.1");
  h.dst = net::Ipv4Addr::from_string("10.0.0.2");
  h.total_length = 100;
  h.write(b, 0);
  EXPECT_TRUE(net::Ipv4Header::checksum_ok(b, 0));
  b.set_u8(16, 99);  // corrupt destination
  EXPECT_FALSE(net::Ipv4Header::checksum_ok(b, 0));
}

TEST(Headers, Ipv4ParseFields) {
  net::Buffer b(20);
  net::Ipv4Header h;
  h.src = net::Ipv4Addr::from_string("1.2.3.4");
  h.dst = net::Ipv4Addr::from_string("5.6.7.8");
  h.ttl = 17;
  h.protocol = net::Ipv4Header::kProtoUdp;
  h.total_length = 64;
  h.write(b, 0);
  const auto p = net::Ipv4Header::parse(b, 0);
  EXPECT_EQ(p.version, 4);
  EXPECT_EQ(p.ihl, 5);
  EXPECT_EQ(p.ttl, 17);
  EXPECT_EQ(p.src.to_string(), "1.2.3.4");
  EXPECT_EQ(p.dst.to_string(), "5.6.7.8");
  EXPECT_EQ(p.total_length, 64);
}

TEST(Headers, UdpFrameBuilder) {
  std::vector<std::uint8_t> payload{0xaa, 0xbb, 0xcc};
  auto frame = net::build_udp_frame(
      {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
      net::Ipv4Addr::from_string("10.0.0.1"),
      net::Ipv4Addr::from_string("10.0.0.2"), 1111, 2222, payload);
  EXPECT_EQ(frame.size(), net::UdpFrameLayout::kPayloadOff + 3);
  const auto udp = net::UdpHeader::parse(frame, net::UdpFrameLayout::kUdpOff);
  EXPECT_EQ(udp.src_port, 1111);
  EXPECT_EQ(udp.dst_port, 2222);
  EXPECT_EQ(udp.length, net::UdpHeader::kSize + 3);
  EXPECT_TRUE(net::Ipv4Header::checksum_ok(frame, net::UdpFrameLayout::kIpOff));
  EXPECT_EQ(frame.u8(net::UdpFrameLayout::kPayloadOff), 0xaa);
}

TEST(Packet, HeadTailSplit) {
  net::Buffer small(100);
  net::Packet p1(small);
  EXPECT_EQ(p1.head_size(), 100u);
  EXPECT_EQ(p1.tail_size(), 0u);
  EXPECT_FALSE(p1.has_tail());

  net::Buffer big(1000);
  net::Packet p2(big);
  EXPECT_EQ(p2.head_size(), net::Packet::kHeadSize);
  EXPECT_EQ(p2.tail_size(), 1000 - net::Packet::kHeadSize);
  EXPECT_TRUE(p2.has_tail());
}

class SinkNode : public net::Node {
 public:
  void receive(net::PacketPtr pkt, int port) override {
    packets.push_back({std::move(pkt), port});
  }
  std::string name() const override { return "sink"; }
  std::vector<std::pair<net::PacketPtr, int>> packets;
};

TEST(Link, SerializationDelayMatchesBandwidth) {
  sim::Simulator s;
  SinkNode sink;
  // 100 Gbps, zero propagation: a 1250-byte frame takes 100 ns on wire.
  net::LinkEndpoint ep(s, 100.0, sim::Duration::zero());
  ep.connect(sink, 7);
  ep.send(net::Packet::make(net::Buffer(1250)));
  s.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].second, 7);
  EXPECT_EQ(s.now().ns(), 100);
}

TEST(Link, BackToBackFramesQueueOnTheWire) {
  sim::Simulator s;
  SinkNode sink;
  net::LinkEndpoint ep(s, 10.0, sim::Duration::nanos(50));
  ep.connect(sink, 0);
  // Two 125-byte frames at 10 Gbps: 100 ns each on the wire.
  ep.send(net::Packet::make(net::Buffer(125)));
  ep.send(net::Packet::make(net::Buffer(125)));
  std::vector<std::int64_t> arrivals;
  s.schedule_in(sim::Duration::micros(10), [] {});
  s.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(ep.bytes_sent(), 250u);
}

TEST(Link, FiniteQueueDropsExcess) {
  sim::Simulator s;
  SinkNode sink;
  net::LinkEndpoint ep(s, 1.0, sim::Duration::zero(), /*queue_frames=*/2);
  ep.connect(sink, 0);
  EXPECT_TRUE(ep.send(net::Packet::make(net::Buffer(1000))));
  EXPECT_TRUE(ep.send(net::Packet::make(net::Buffer(1000))));
  EXPECT_FALSE(ep.send(net::Packet::make(net::Buffer(1000))));
  EXPECT_EQ(ep.frames_dropped(), 1u);
  s.run();
  EXPECT_EQ(sink.packets.size(), 2u);
}

TEST(Link, SendWithoutPeerThrows) {
  sim::Simulator s;
  net::LinkEndpoint ep(s, 10.0, sim::Duration::zero());
  EXPECT_THROW(ep.send(net::Packet::make(net::Buffer(10))),
               std::logic_error);
}

TEST(Link, FullDuplexAttach) {
  sim::Simulator s;
  SinkNode a, b;
  net::Link link(s, 100.0, sim::Duration::nanos(10));
  link.attach(a, 1, b, 2);
  link.a_to_b().send(net::Packet::make(net::Buffer(100)));
  link.b_to_a().send(net::Packet::make(net::Buffer(100)));
  s.run();
  ASSERT_EQ(a.packets.size(), 1u);
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(a.packets[0].second, 1);
  EXPECT_EQ(b.packets[0].second, 2);
}

}  // namespace
