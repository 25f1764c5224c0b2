#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "trio/forwarding.hpp"
#include "trio/reorder.hpp"
#include "trio/router.hpp"

namespace {

// ---------------------------------------------------------------------------
// ReorderEngine

TEST(Reorder, SameFlowReleasesInArrivalOrder) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto t1 = re.open(5);
  const auto t2 = re.open(5);
  re.attach(t2, {nullptr, 2});
  re.close(t2);  // finished first, must wait for t1
  EXPECT_TRUE(released.empty());
  re.attach(t1, {nullptr, 1});
  re.close(t1);
  EXPECT_EQ(released, (std::vector<std::uint32_t>{1, 2}));
}

TEST(Reorder, DifferentFlowsIndependent) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto a = re.open(1);
  const auto b = re.open(2);
  re.attach(b, {nullptr, 20});
  re.close(b);  // flow 2 not blocked by flow 1
  EXPECT_EQ(released, (std::vector<std::uint32_t>{20}));
  re.attach(a, {nullptr, 10});
  re.close(a);
  EXPECT_EQ(released, (std::vector<std::uint32_t>{20, 10}));
}

TEST(Reorder, ConsumedPacketUnblocksSuccessors) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto t1 = re.open(9);
  const auto t2 = re.open(9);
  re.attach(t2, {nullptr, 2});
  re.close(t2);
  re.close(t1);  // consumed: zero outputs
  EXPECT_EQ(released, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(re.pending(), 0u);
}

TEST(Reorder, MultipleOutputsPerTicket) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto t = re.open(1);
  re.attach(t, {nullptr, 1});
  re.attach(t, {nullptr, 2});
  re.close(t);
  EXPECT_EQ(released, (std::vector<std::uint32_t>{1, 2}));
}

TEST(Reorder, DoubleCloseThrows) {
  trio::ReorderEngine re([](trio::ReorderEngine::Output) {});
  const auto t = re.open(1);
  re.close(t);
  EXPECT_THROW(re.close(t), std::logic_error);
}

// ---------------------------------------------------------------------------
// ForwardingTable

TEST(Forwarding, LongestPrefixMatchWins) {
  trio::ForwardingTable fwd;
  const auto nh_default = fwd.add_nexthop(trio::NexthopDiscard{});
  const auto nh_slash8 =
      fwd.add_nexthop(trio::NexthopUnicast{1, {}});
  const auto nh_slash24 =
      fwd.add_nexthop(trio::NexthopUnicast{2, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh_default);
  fwd.add_route(net::Ipv4Addr::from_string("10.0.0.0"), 8, nh_slash8);
  fwd.add_route(net::Ipv4Addr::from_string("10.1.2.0"), 24, nh_slash24);

  EXPECT_EQ(fwd.lookup(net::Ipv4Addr::from_string("10.1.2.3")), nh_slash24);
  EXPECT_EQ(fwd.lookup(net::Ipv4Addr::from_string("10.9.9.9")), nh_slash8);
  EXPECT_EQ(fwd.lookup(net::Ipv4Addr::from_string("192.168.0.1")),
            nh_default);
}

TEST(Forwarding, LookupWithoutRoutesIsEmpty) {
  trio::ForwardingTable fwd;
  EXPECT_FALSE(fwd.lookup(net::Ipv4Addr::from_string("1.2.3.4")).has_value());
}

TEST(Forwarding, MulticastGroupAccumulatesMembers) {
  trio::ForwardingTable fwd;
  const auto m1 = fwd.add_nexthop(trio::NexthopUnicast{1, {}});
  const auto m2 = fwd.add_nexthop(trio::NexthopUnicast{2, {}});
  const auto group = net::Ipv4Addr::from_string("239.0.0.7");
  const auto g1 = fwd.join_group(group, m1);
  const auto g2 = fwd.join_group(group, m2);
  EXPECT_EQ(g1, g2);
  const auto& mc = std::get<trio::NexthopMulticast>(fwd.nexthop(g1));
  EXPECT_EQ(mc.members, (std::vector<std::uint32_t>{m1, m2}));
  EXPECT_EQ(fwd.lookup(group), g1);
}

TEST(Forwarding, BadRouteArgumentsThrow) {
  trio::ForwardingTable fwd;
  const auto nh = fwd.add_nexthop(trio::NexthopDiscard{});
  EXPECT_THROW(fwd.add_route(net::Ipv4Addr(), 33, nh),
               std::invalid_argument);
  EXPECT_THROW(fwd.add_route(net::Ipv4Addr(), 8, nh + 1),
               std::invalid_argument);
  EXPECT_THROW(fwd.nexthop(99), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Router end-to-end IP forwarding (default program on PPE threads)

class RouterForwardingTest : public ::testing::Test {
 protected:
  RouterForwardingTest()
      : router(sim, trio::Calibration{}, /*pfes=*/2, /*ports=*/4) {}

  net::Buffer make_frame(const std::string& dst, std::size_t payload = 64) {
    std::vector<std::uint8_t> body(payload, 0x5a);
    return net::build_udp_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                                net::Ipv4Addr::from_string("10.0.0.1"),
                                net::Ipv4Addr::from_string(dst), 1000, 2000,
                                body);
  }

  sim::Simulator sim;
  trio::Router router;
};

TEST_F(RouterForwardingTest, ForwardsByLpmAndDecrementsTtl) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(
      trio::NexthopUnicast{2, {0xde, 0xad, 0, 0, 0, 1}});
  fwd.add_route(net::Ipv4Addr::from_string("10.0.1.0"), 24, nh);

  std::vector<net::PacketPtr> out;
  router.attach_port_sink(2, [&](net::PacketPtr p) { out.push_back(std::move(p)); });

  router.receive(net::Packet::make(make_frame("10.0.1.9")), 0);
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  const auto ip = net::Ipv4Header::parse(out[0]->frame(),
                                         net::UdpFrameLayout::kIpOff);
  EXPECT_EQ(ip.ttl, 63);  // decremented
  const auto eth = net::EthernetHeader::parse(out[0]->frame(), 0);
  EXPECT_EQ(eth.dst, (net::MacAddr{0xde, 0xad, 0, 0, 0, 1}));
}

TEST_F(RouterForwardingTest, CrossPfeForwardingTransitsFabric) {
  auto& fwd = router.forwarding();
  // Port 5 lives on PFE 1; ingress arrives on PFE 0.
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{5, {}});
  fwd.add_route(net::Ipv4Addr::from_string("10.0.2.0"), 24, nh);

  std::vector<net::PacketPtr> out;
  router.attach_port_sink(5, [&](net::PacketPtr p) { out.push_back(std::move(p)); });
  router.receive(net::Packet::make(make_frame("10.0.2.1")), 0);
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(router.fabric().packets(), 1u);
}

TEST_F(RouterForwardingTest, NoRouteIsDropped) {
  router.receive(net::Packet::make(make_frame("172.16.0.1")), 0);
  sim.run();
  EXPECT_EQ(router.no_route_drops(), 1u);
  EXPECT_EQ(router.packets_transmitted(), 0u);
}

TEST_F(RouterForwardingTest, TtlExpiryIsDropped) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{1, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh);

  auto frame = make_frame("10.0.0.2");
  net::Ipv4Header ip = net::Ipv4Header::parse(frame, net::UdpFrameLayout::kIpOff);
  ip.ttl = 1;
  ip.write(frame, net::UdpFrameLayout::kIpOff);

  std::vector<net::PacketPtr> out;
  router.attach_port_sink(1, [&](net::PacketPtr p) { out.push_back(std::move(p)); });
  router.receive(net::Packet::make(std::move(frame)), 0);
  sim.run();
  EXPECT_TRUE(out.empty());
}

TEST_F(RouterForwardingTest, MulticastReplicatesToAllMembers) {
  auto& fwd = router.forwarding();
  const auto group = net::Ipv4Addr::from_string("239.1.1.1");
  for (int port : {1, 2, 3}) {
    fwd.join_group(group, fwd.add_nexthop(trio::NexthopUnicast{port, {}}));
  }
  int delivered = 0;
  for (int port : {1, 2, 3}) {
    router.attach_port_sink(port, [&](net::PacketPtr) { ++delivered; });
  }
  router.receive(net::Packet::make(make_frame("239.1.1.1")), 0);
  sim.run();
  EXPECT_EQ(delivered, 3);
}

TEST_F(RouterForwardingTest, ManyPacketsAllForwardedUnderLoad) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{3, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh);
  int delivered = 0;
  router.attach_port_sink(3, [&](net::PacketPtr) { ++delivered; });
  for (int i = 0; i < 2000; ++i) {
    router.receive(net::Packet::make(make_frame("10.0.0.9", 200)), 0);
  }
  sim.run();
  EXPECT_EQ(delivered, 2000);
  EXPECT_GT(router.pfe(0).instructions_issued(), 0u);
}

TEST_F(RouterForwardingTest, SameFlowStaysInOrder) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{3, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh);
  // Forwarding emits the packet it was handed, so identity gives the
  // order; holding every packet keeps each address unique.
  std::vector<net::PacketPtr> sent, order;
  router.attach_port_sink(3, [&](net::PacketPtr p) {
    order.push_back(std::move(p));
  });
  for (int i = 0; i < 500; ++i) {
    sent.push_back(net::Packet::make(make_frame("10.0.0.9")));
    router.receive(sent.back(), 0);
  }
  sim.run();
  ASSERT_EQ(order.size(), 500u);
  for (std::size_t i = 0; i < 500; ++i) EXPECT_EQ(order[i], sent[i]);
}

// ---------------------------------------------------------------------------
// Timer threads

class CountingProgram : public trio::PpeProgram {
 public:
  explicit CountingProgram(int* counter) : counter_(counter) {}
  trio::Action step(trio::ThreadContext&) override {
    ++*counter_;
    return trio::ActExit{4};
  }

 private:
  int* counter_;
};

TEST(TimerWheel, PhaseShiftedPeriodicFiring) {
  sim::Simulator sim;
  trio::Calibration cal;
  trio::Router router(sim, cal, 1, 2);
  int count = 0;
  router.pfe(0).timers().start(
      /*count=*/10, sim::Duration::millis(1),
      [&](std::uint32_t) { return std::make_unique<CountingProgram>(&count); });
  sim.run_until(sim::Time(sim::Duration::millis(10).ns()));
  // 10 timers x ~10 periods in 10 ms: about 100 firings.
  EXPECT_GE(count, 90);
  EXPECT_LE(count, 110);
  EXPECT_EQ(router.pfe(0).timers().skips(), 0u);
  router.pfe(0).timers().stop();
  const int before = count;
  sim.run_until(sim::Time(sim::Duration::millis(20).ns()));
  // No NEW firings after stop; threads already spawned may still run.
  EXPECT_LE(count, before + 10);
}

TEST(TimerWheel, RejectsBadArguments) {
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  EXPECT_THROW(router.pfe(0).timers().start(0, sim::Duration::millis(1),
                                            [](std::uint32_t) { return nullptr; }),
               std::invalid_argument);
  EXPECT_THROW(router.pfe(0).timers().start(1, sim::Duration::nanos(10),
                                            [](std::uint32_t) { return nullptr; }),
               std::invalid_argument);
}

}  // namespace
