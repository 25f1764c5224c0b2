// Fluid fidelity-boundary tests (docs/fluid.md): the max-min allocator,
// pause/resume and sub-byte accrual at the engine level; digest
// invariance of a lossy run with fluid vs packet background traffic,
// chaos windows forcing packet mode, the load a windowed stream offers,
// JobManager's one-run-per-controller rule and shard-count invariance at
// the FluidController level.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "jobs/fluid.hpp"
#include "jobs/job_manager.hpp"
#include "sim/digest.hpp"
#include "sim/fluid.hpp"
#include "sim/shard.hpp"

namespace {

using cluster::Cluster;
using cluster::ClusterSpec;
using sim::Duration;
using sim::FluidEngine;
using sim::Time;

Time ms(int v) { return Time(Duration::millis(v).ns()); }
Time us(int v) { return Time(Duration::micros(v).ns()); }

// --- FluidEngine: the max-min allocator --------------------------------
//
// Each engine runs on a one-shard ShardedSimulator, so its wakeups and the
// tests' mid-run calls are global actions.

// A lone demand-capped flow gets its demand; an uncapped one takes the
// residual.
TEST(FluidEngine, SingleFlowRates) {
  sim::ShardedSimulator s(/*num_domains=*/1, /*num_shards=*/1,
                          Duration::zero());
  FluidEngine eng(s);
  const auto l = eng.add_link(100.0);
  const auto a = eng.add_flow({{l}, 40.0});
  EXPECT_NEAR(eng.flow_rate_gbps(a), 40.0, 1e-9);
  const auto b = eng.add_flow({{l}, 0.0});
  EXPECT_NEAR(eng.flow_rate_gbps(a), 40.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(b), 60.0, 1e-9);
  EXPECT_NEAR(eng.link_fluid_gbps(l), 100.0, 1e-9);
  eng.stop();
}

// Two uncapped flows split a link evenly; pausing one hands its share to
// the other, and resuming it splits the link again.
TEST(FluidEngine, FairShareAndDeparture) {
  sim::ShardedSimulator s(1, 1, Duration::zero());
  FluidEngine eng(s);
  const auto l = eng.add_link(100.0);
  const auto a = eng.add_flow({{l}, 0.0});
  const auto b = eng.add_flow({{l}, 0.0});
  EXPECT_NEAR(eng.flow_rate_gbps(a), 50.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(b), 50.0, 1e-9);
  eng.pause_flow(b);
  EXPECT_TRUE(eng.flow_paused(b));
  EXPECT_NEAR(eng.flow_rate_gbps(a), 100.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(b), 0.0, 1e-9);
  eng.resume_flow(b);
  EXPECT_FALSE(eng.flow_paused(b));
  EXPECT_NEAR(eng.flow_rate_gbps(a), 50.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(b), 50.0, 1e-9);
  eng.stop();
}

// The classic two-link example: flow B crosses a 30 Gbps bottleneck, so
// max-min gives it 30 and hands flow A the 70 left on the shared link —
// not the 50/50 a naive equal split would produce.
TEST(FluidEngine, MaxMinBottleneck) {
  sim::ShardedSimulator s(1, 1, Duration::zero());
  FluidEngine eng(s);
  const auto wide = eng.add_link(100.0);
  const auto narrow = eng.add_link(30.0);
  const auto a = eng.add_flow({{wide}, 0.0});
  const auto b = eng.add_flow({{wide, narrow}, 0.0});
  EXPECT_NEAR(eng.flow_rate_gbps(b), 30.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(a), 70.0, 1e-9);
  EXPECT_NEAR(eng.link_fluid_gbps(wide), 100.0, 1e-9);
  EXPECT_NEAR(eng.link_fluid_gbps(narrow), 30.0, 1e-9);
  eng.stop();
}

// Accrual is rate x time with the sub-byte remainder carried across
// updates: at 1.23456 Gbps each 20 us tick is worth 3086.4 bytes, so
// truncating every tick would lose 200 bytes over 10 ms.
TEST(FluidEngine, FractionalRateStaysByteExact) {
  sim::ShardedSimulator s(1, 1, Duration::zero());
  FluidEngine eng(s);
  const auto l = eng.add_link(100.0);
  const double gbps = 1.23456;
  eng.add_flow({{l}, gbps});
  s.run_until(ms(10));  // the last tick lands on the deadline
  const double exact = gbps * double(Duration::millis(10).ns()) / 8.0;
  EXPECT_LE(std::abs(double(eng.fluid_bytes_total()) - exact), 1.0);
  eng.stop();
}

// A paused flow releases its share and accrues nothing; the other flow
// picks the share up, and the paused flow resumes where it stopped.
TEST(FluidEngine, PauseCreditResumeRoundTrip) {
  sim::ShardedSimulator s(1, 1, Duration::zero());
  FluidEngine eng(s);
  const auto l = eng.add_link(100.0);
  const auto bg = eng.add_flow({{l}, 0.0});
  const auto f = eng.add_flow({{l}, 0.0});
  int checks = 0;
  s.schedule_global(us(40), [&] {
    eng.pause_flow(f);  // advances accrual to now, then releases the share
    EXPECT_EQ(eng.fluid_bytes_total(), 500'000u);  // 40 us at 2 x 50 Gbps
    EXPECT_NEAR(eng.flow_rate_gbps(bg), 100.0, 1e-9);
    EXPECT_NEAR(eng.flow_rate_gbps(f), 0.0, 1e-9);
    ++checks;
  });
  s.schedule_global(us(60), [&] {
    eng.resume_flow(f);
    // 20 us of the background flow alone at 100 Gbps.
    EXPECT_EQ(eng.fluid_bytes_total(), 750'000u);
    EXPECT_NEAR(eng.flow_rate_gbps(f), 50.0, 1e-9);
    ++checks;
  });
  s.run_until(us(100));
  EXPECT_EQ(checks, 2);
  EXPECT_EQ(eng.fluid_bytes_total(), 1'250'000u);  // + 40 us at 2 x 50
  eng.stop();
}

// The packet-occupancy probe reserves measured packet bandwidth away from
// the fluid allocation on the next tick.
TEST(FluidEngine, PacketProbeReservesCapacity) {
  sim::ShardedSimulator s(1, 1, Duration::zero());
  FluidEngine eng(s);
  const auto l = eng.add_link(100.0);
  std::uint64_t packet_bytes = 0;
  eng.set_packet_probe(l, [&] { return packet_bytes; });
  const auto f = eng.add_flow({{l}, 0.0});
  EXPECT_NEAR(eng.flow_rate_gbps(f), 100.0, 1e-9);
  // 50 KB over the [0, 20 us) tick = 20 Gbps of packet traffic.
  s.schedule_global(us(5), [&] { packet_bytes = 50'000; });
  bool checked = false;
  s.schedule_global(us(25), [&] {  // after the 20 us tick sampled the probe
    EXPECT_NEAR(eng.link_packet_gbps(l), 20.0, 1e-6);
    EXPECT_NEAR(eng.flow_rate_gbps(f), 80.0, 1e-6);
    checked = true;
  });
  s.run_until(us(30));
  EXPECT_TRUE(checked);
  eng.stop();
}

// --- FluidController: the fidelity boundary on a Cluster ---------------

ClusterSpec small_spec(int shards = 1) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 512;
  spec.fabric_link.gbps = 400.0;
  spec.fabric_link.latency = Duration::micros(2);
  spec.shards = shards;
  return spec;
}

// Results + timing fingerprint (the fig17 shape): any scheduling or
// ordering divergence shows up here even when values agree.
std::uint64_t run_digest(const cluster::AllreduceRun& run, Time now) {
  sim::Digest d;
  d.u64(std::uint64_t(run.finished))
      .u64(std::uint64_t(run.finish.ns()))
      .u64(std::uint64_t(now.ns()));
  for (const auto& r : run.results) {
    for (float g : r.grads) {
      std::uint32_t bits;
      std::memcpy(&bits, &g, sizeof(bits));
      d.u64(bits);
    }
  }
  return d.value();
}

struct ControllerRun {
  cluster::AllreduceRun run;
  std::uint64_t digest = 0;
  std::uint64_t fluid_bytes = 0;
  std::uint64_t packet_frames = 0;
  std::uint64_t transitions = 0;
};

// One allreduce against background aggressors on every host, with
// optional chaos. `forced_packet` holds packet mode for the whole run,
// so the re-materialised generators do all the work — the full-fidelity
// comparator fluid runs are measured against.
ControllerRun run_with_background(const ClusterSpec& spec, bool forced_packet,
                                  const faults::FaultSchedule* schedule,
                                  Time deadline) {
  Cluster cl(spec);
  for (int w = 0; w < cl.num_workers(); ++w) {
    cl.worker(w).enable_retransmit(Duration::micros(200));
  }
  jobs::FluidController fluid(cl);
  for (int h = 0; h < cl.num_workers(); ++h) {
    fluid.add_background_stream(h, /*tenant=*/9, /*load=*/0.5);
  }
  faults::FaultInjector injector(cl);
  if (schedule != nullptr) {
    injector.arm(*schedule);
    fluid.observe(*schedule);
  }
  if (forced_packet) fluid.enter_packet_mode();

  ControllerRun out;
  out.run = cluster::run_allreduce(
      cl, cluster::patterned_gradients(cl.num_workers(), 128 * 8),
      /*gen_id=*/1, deadline);
  fluid.stop();
  out.digest = run_digest(out.run, cl.simulator().now());
  out.fluid_bytes = fluid.fluid_bytes();
  out.packet_frames = fluid.packet_frames();
  out.transitions = fluid.transitions();
  return out;
}

// Fluid-mode and forced-packet-mode background traffic produce the same
// allreduce values (the aggregation arithmetic never sees the aggressor
// bytes, only their contention), and each mode really ran in its mode.
TEST(FluidController, FluidVsPacketBackgroundValueIdentical) {
  const auto fluid = run_with_background(small_spec(), false, nullptr, ms(5));
  const auto packet = run_with_background(small_spec(), true, nullptr, ms(5));
  ASSERT_EQ(fluid.run.finished, 4);
  ASSERT_EQ(packet.run.finished, 4);
  EXPECT_TRUE(cluster::bit_identical(fluid.run.results, packet.run.results));
  EXPECT_GT(fluid.fluid_bytes, 0u);
  EXPECT_EQ(fluid.packet_frames, 0u);  // no fault window: never demoted
  EXPECT_EQ(packet.fluid_bytes, 0u);   // forced packet: never fluid
  EXPECT_GT(packet.packet_frames, 0u);
}

// Same comparison through a lossy fabric (the fig13 shape): drops on the
// trunk uplinks, worker retransmission repairing them. Values must stay
// bit-identical to the clean flat-testbed baseline in both modes.
TEST(FluidController, LossyRunDigestInvariantFluidVsPacket) {
  for (const bool forced_packet : {false, true}) {
    auto spec = small_spec();
    Cluster cl(spec);
    for (int r = 0; r < spec.racks; ++r) {
      cl.fabric_link(r).a_to_b().set_loss(0.3, 91 + std::uint64_t(r));
    }
    for (int w = 0; w < cl.num_workers(); ++w) {
      cl.worker(w).enable_retransmit(Duration::micros(200));
    }
    jobs::FluidController fluid(cl);
    for (int h = 0; h < cl.num_workers(); ++h) {
      fluid.add_background_stream(h, 9, 0.5);
    }
    if (forced_packet) fluid.enter_packet_mode();
    const auto grads = cluster::patterned_gradients(4, 128 * 8);
    const auto run = cluster::run_allreduce(cl, grads, 1, ms(10));
    fluid.stop();
    ASSERT_EQ(run.finished, 4) << "forced_packet=" << forced_packet;
    std::uint64_t dropped = 0;
    for (int r = 0; r < spec.racks; ++r) {
      dropped += cl.fabric_link(r).a_to_b().frames_dropped();
    }
    EXPECT_GT(dropped, 0u) << "forced_packet=" << forced_packet;
    EXPECT_TRUE(cluster::bit_identical(run.results,
                                       cluster::testbed_baseline(spec, grads)))
        << "forced_packet=" << forced_packet;
  }
}

// A chaos window forces packet mode: burst loss on rack 0's trunk opens a
// packet-fidelity region; re-materialised frames flow (and some really
// drop), then the streams demote back to fluid after the padded window.
TEST(FluidController, ChaosWindowForcesPacketMode) {
  auto spec = small_spec();
  faults::FaultSchedule schedule;
  schedule.burst_loss(
      ms(1), {faults::TargetKind::kFabricLink, 0, faults::LinkDir::kUp},
      net::GilbertElliott{0.05, 0.2, 0.0, 1.0},
      /*window=*/Duration::millis(2), /*seed=*/7);

  Cluster cl(spec);
  for (int w = 0; w < cl.num_workers(); ++w) {
    cl.worker(w).enable_retransmit(Duration::micros(200));
  }
  jobs::FluidController fluid(cl);
  for (int h = 0; h < cl.num_workers(); ++h) {
    fluid.add_background_stream(h, 9, 0.5);
  }
  faults::FaultInjector injector(cl);
  injector.arm(schedule);
  fluid.observe(schedule);
  EXPECT_EQ(fluid.windows_observed(), 1u);

  // Watch the mode at the window edges: fluid before, packet inside,
  // fluid again after the padded exit (3 ms end + 100 us < 4 ms).
  bool before = false, inside = false, after = false;
  cl.engine().schedule_global(us(999), [&] { before = !fluid.packet_mode(); });
  cl.engine().schedule_global(ms(2), [&] { inside = fluid.packet_mode(); });
  cl.engine().schedule_global(ms(4), [&] { after = !fluid.packet_mode(); });

  const auto run = cluster::run_allreduce(
      cl, cluster::patterned_gradients(4, 128 * 8), 1, ms(5));
  fluid.stop();

  ASSERT_EQ(run.finished, 4);
  EXPECT_TRUE(before);
  EXPECT_TRUE(inside);
  EXPECT_TRUE(after);
  EXPECT_EQ(fluid.transitions(), 2u);  // one enter + one exit
  EXPECT_GT(fluid.packet_frames(), 0u);
  EXPECT_GT(fluid.fluid_bytes(), 0u);
  EXPECT_GT(cl.fabric_link(0).a_to_b().frames_dropped(), 0u);
}

// A stream that crosses a fault window still offers its full load: fluid
// accrual outside the window plus re-materialised frames inside it add up
// to load x line rate x horizon. The faulted link (host 1's uplink) is
// not the stream's path, so the window demotes the stream without eating
// its frames.
TEST(FluidController, WindowedStreamOffersItsLoad) {
  faults::FaultSchedule schedule;
  schedule.burst_loss(ms(1),
                      {faults::TargetKind::kHostLink, 1, faults::LinkDir::kUp},
                      net::GilbertElliott{0.01, 0.5, 0.0, 1.0},
                      Duration::millis(1), /*seed=*/3);

  Cluster cl(small_spec());
  jobs::FluidController fluid(cl);
  const double load = 0.8;
  fluid.add_background_stream(/*host=*/0, /*tenant=*/9, load);
  faults::FaultInjector injector(cl);
  injector.arm(schedule);
  fluid.observe(schedule);

  cl.engine().run_until(ms(5));
  fluid.stop();

  EXPECT_EQ(fluid.transitions(), 2u);    // one enter + one exit
  EXPECT_GT(fluid.packet_frames(), 0u);  // the window really re-materialised
  EXPECT_GT(fluid.fluid_bytes(), 0u);    // and fluid carried the rest
  const double offered = load * cl.link(0).a_to_b().gbps() *
                         double(Duration::millis(5).ns()) / 8.0;
  const double carried = double(fluid.fluid_bytes() + fluid.packet_bytes());
  EXPECT_LE(std::abs(carried - offered) / offered, 0.005)
      << "carried " << carried << " of " << offered << " offered bytes";
}

// JobManager::run stops its fluid controller when the run ends. A second
// run with that controller would face a frozen background, so it throws
// before starting anything.
TEST(FluidController, SecondRunWithStoppedControllerThrows) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  Cluster cl(spec);
  jobs::JobManager mgr(cl);
  jobs::FluidController fluid(cl);
  mgr.enable_fluid(fluid);

  jobs::TenantSpec training;
  training.id = 2;
  training.kind = jobs::TenantKind::kAllreduce;
  training.grads = 128 * 8;
  jobs::TenantSpec aggressor;
  aggressor.id = 4;
  aggressor.kind = jobs::TenantKind::kBestEffort;
  aggressor.load = 0.5;
  ASSERT_TRUE(mgr.admit(training).admitted);
  ASSERT_TRUE(mgr.admit(aggressor).admitted);

  const jobs::MultiTenantRun first =
      mgr.run(/*gen_id=*/1, cl.simulator().now() + Duration::millis(5));
  ASSERT_NE(first.tenant(2), nullptr);
  EXPECT_EQ(first.tenant(2)->finished, cl.num_workers());
  EXPECT_GT(fluid.fluid_bytes(), 0u);
  EXPECT_TRUE(fluid.stopped());

  const std::uint64_t events = cl.engine().events_executed();
  EXPECT_THROW(mgr.run(/*gen_id=*/2, cl.simulator().now() + Duration::millis(5)),
               std::logic_error);
  EXPECT_EQ(cl.engine().events_executed(), events);
}

// The digest of a fluid-enabled chaos run — allreduce under fluid
// background load with a burst-loss window that overlaps the transfer —
// is bit-identical across shard counts: every fluid transition and rate
// update runs as a global action at a deterministic simulated time.
TEST(FluidController, ShardCountInvariantDigest) {
  faults::FaultSchedule schedule;
  schedule.burst_loss(
      us(100), {faults::TargetKind::kFabricLink, 0, faults::LinkDir::kUp},
      net::GilbertElliott{0.05, 0.2, 0.0, 1.0}, Duration::millis(1),
      /*seed=*/7);

  std::uint64_t base_digest = 0;
  std::uint64_t base_fluid = 0;
  std::uint64_t base_frames = 0;
  for (const int shards : {1, 3}) {
    const auto res =
        run_with_background(small_spec(shards), false, &schedule, ms(5));
    ASSERT_EQ(res.run.finished, 4) << "shards=" << shards;
    EXPECT_GT(res.transitions, 0u) << "shards=" << shards;
    if (shards == 1) {
      base_digest = res.digest;
      base_fluid = res.fluid_bytes;
      base_frames = res.packet_frames;
    } else {
      EXPECT_EQ(res.digest, base_digest) << "shards=" << shards;
      EXPECT_EQ(res.fluid_bytes, base_fluid) << "shards=" << shards;
      EXPECT_EQ(res.packet_frames, base_frames) << "shards=" << shards;
    }
  }
}

}  // namespace
