// Remaining small-surface coverage: PISA edge paths, router error
// handling, buffer append, event-id semantics.
#include <gtest/gtest.h>

#include "pisa/switch.hpp"
#include "trio/router.hpp"

namespace {

TEST(EventId, DefaultIsInvalidAndCancelSafe) {
  sim::Simulator s;
  sim::EventId id;
  EXPECT_FALSE(id.valid());
  EXPECT_FALSE(s.cancel(id));  // cancelling nothing is harmless
}

TEST(Buffer, AppendGrowsAndPreserves) {
  net::Buffer b(2);
  b.set_u8(0, 0xaa);
  b.set_u8(1, 0xbb);
  const std::uint8_t extra[3] = {1, 2, 3};
  b.append(extra);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.u8(0), 0xaa);
  EXPECT_EQ(b.u8(4), 3);
}

TEST(PacketMeta, CarriesPortsAndIds) {
  net::Packet p{net::Buffer(64)};
  p.set_arrival_time(sim::Time(999));
  EXPECT_EQ(p.arrival_time(), sim::Time(999));
}

TEST(PisaEdge, ParserDropCountsNothingDownstream) {
  sim::Simulator sim;
  pisa::PipelineConfig cfg;
  cfg.stages = 2;
  pisa::Pipeline pipe(sim, cfg);
  int stage_runs = 0;
  int deparsed = 0;
  pipe.set_parser([](pisa::Phv&) { return false; });  // drop at parse
  pipe.stage(0).set_logic([&](pisa::Phv&, pisa::Stage&) { ++stage_runs; });
  pipe.set_deparser([&](pisa::Phv&&) { ++deparsed; });
  pipe.inject(net::Packet::make(net::Buffer(64)));
  sim.run();
  EXPECT_EQ(stage_runs, 0);
  EXPECT_EQ(deparsed, 0);
  EXPECT_EQ(pipe.packets_in(), 1u);
}

TEST(PisaEdge, StageAccessCounterTracksRmws) {
  pisa::Stage st(0);
  const int a = st.add_register_array(4);
  for (int i = 0; i < 5; ++i) {
    st.begin_traversal();
    st.stateful_rmw(a, 0, [](std::uint32_t v) { return v + 1; });
  }
  EXPECT_EQ(st.accesses(), 5u);
}

TEST(PisaEdge, DropMidPipelineSkipsRemainingStages) {
  sim::Simulator sim;
  pisa::PipelineConfig cfg;
  cfg.stages = 3;
  pisa::Pipeline pipe(sim, cfg);
  int later_runs = 0;
  pipe.set_parser([](pisa::Phv& phv) {
    phv.meta.assign(1, 0);
    return true;
  });
  pipe.stage(0).set_logic([](pisa::Phv& phv, pisa::Stage&) {
    phv.drop = true;
  });
  pipe.stage(1).set_logic([&](pisa::Phv&, pisa::Stage&) { ++later_runs; });
  pipe.inject(net::Packet::make(net::Buffer(64)));
  sim.run();
  EXPECT_EQ(later_runs, 0);
}

TEST(RouterEdge, BadPortsRejected) {
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  EXPECT_THROW(router.receive(net::Packet::make(net::Buffer(64)), 7),
               std::out_of_range);
  EXPECT_THROW(router.receive(net::Packet::make(net::Buffer(64)), -1),
               std::out_of_range);
  net::LinkEndpoint ep(sim, 10.0, sim::Duration::zero());
  EXPECT_THROW(router.attach_port(9, ep), std::out_of_range);
}

TEST(RouterEdge, UnattachedEgressPortCountsDiscard) {
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  const auto nh = router.forwarding().add_nexthop(
      trio::NexthopUnicast{1, {}});  // port 1 has no link/sink
  router.forwarding().add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh);
  std::vector<std::uint8_t> payload(32, 0);
  router.receive(net::Packet::make(net::build_udp_frame(
                     {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                     net::Ipv4Addr::from_octets(1, 1, 1, 1),
                     net::Ipv4Addr::from_octets(2, 2, 2, 2), 1, 2, payload)),
                 0);
  sim.run();
  EXPECT_EQ(router.packets_discarded(), 1u);
}

TEST(RouterEdge, ZeroPfesRejected) {
  sim::Simulator sim;
  EXPECT_THROW(trio::Router(sim, trio::Calibration{}, 0, 2),
               std::invalid_argument);
  EXPECT_THROW(trio::Router(sim, trio::Calibration{}, 1, 0),
               std::invalid_argument);
}

TEST(RouterEdge, NamePropagates) {
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2, "edge-router-7");
  EXPECT_EQ(router.name(), "edge-router-7");
}

}  // namespace
