// src/cluster/: declarative multi-rack topologies and the hierarchical
// aggregation tree (paper §4 cross-device aggregation, generalized from
// the hand-wired two-router test into a first-class subsystem).
#include <gtest/gtest.h>

#include <sstream>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "trioml/addressing.hpp"
#include "trioml/wire_format.hpp"

namespace {

using namespace cluster;

TEST(ClusterSpecTest, ValidationRejectsUnbuildableSpecs) {
  ClusterSpec ok;
  EXPECT_NO_THROW(ok.validate());

  ClusterSpec s = ok;
  s.racks = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = ok;
  s.workers_per_rack = 65;  // leaf fast-path source mask is 64 bits
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = ok;
  s.racks = 65;  // spine fast-path source mask is 64 bits
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = ok;
  s.racks = 64;
  s.workers_per_rack = 4;  // 256 workers > uint8 contributor count
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = ok;
  s.window = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = ok;
  s.grads_per_packet = trioml::kMaxGradsPerPacket + 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = ok;
  s.fabric_link.loss = 1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = ok;
  s.host_link.gbps = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ClusterTreeTest, ConstructionRules) {
  ClusterSpec spec;
  spec.racks = 4;
  spec.workers_per_rack = 3;
  const AggregationTree tree = build_aggregation_tree(spec);

  ASSERT_EQ(tree.racks.size(), 4u);
  EXPECT_EQ(tree.expected_sources, 12);
  EXPECT_EQ(tree.spine_ip, trioml::spine_ip());
  EXPECT_EQ(tree.result_group, trioml::result_group());
  ASSERT_EQ(tree.spine_src_ids.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const RackNode& node = tree.racks[static_cast<std::size_t>(r)];
    EXPECT_EQ(node.rack, r);
    // Source ids are rack-local (unique per aggregation level, so the
    // tree scales past 64 total workers).
    ASSERT_EQ(node.worker_src_ids.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(node.worker_src_ids[static_cast<std::size_t>(i)], i);
    }
    // Rack r reaches the spine as source r.
    EXPECT_EQ(node.uplink_src_id, r);
    EXPECT_EQ(tree.spine_src_ids[static_cast<std::size_t>(r)], r);
    EXPECT_EQ(node.agg_ip, trioml::aggregator_ip(r));
  }
}

// The acceptance bar: a >= 4-rack, >= 16-worker cluster completes an
// allreduce through the two-level tree with results bit-identical to the
// flat single-router Testbed aggregating the same worker gradients
// (integer gradient addition is associative).
TEST(ClusterTest, FourRackSixteenWorkerBitIdenticalToTestbed) {
  ClusterSpec spec;
  spec.racks = 4;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 256;
  spec.slab_pool = 256;
  const auto grads = patterned_gradients(spec.total_workers(), 256 * 3);

  Cluster cl(spec);
  const AllreduceRun run = run_allreduce(cl, grads);
  ASSERT_EQ(run.finished, 16);
  for (const auto& r : run.results) {
    EXPECT_EQ(r.degraded_blocks, 0u);
    ASSERT_EQ(r.grads.size(), 256u * 3u);
  }

  const auto baseline = testbed_baseline(spec, grads);
  EXPECT_TRUE(bit_identical(run.results, baseline));

  // Each leaf completed its rack's blocks, the spine one block per
  // gradient block, and the trunks carried leaf results, not worker
  // streams: 3 result packets up per rack (plus slack).
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cl.leaf_app(r).stats().blocks_completed, 3u) << "rack " << r;
    EXPECT_LE(cl.fabric_link(r).a_to_b().frames_sent(), 5u) << "rack " << r;
  }
  EXPECT_EQ(cl.spine_app().stats().blocks_completed, 3u);
  EXPECT_GT(run.goodput_gbps(), 0.0);
}

// A sanity check that the cluster really is spread across devices: every
// leaf router and the spine forward packets.
TEST(ClusterTest, TrafficTraversesEveryRouter) {
  ClusterSpec spec;
  spec.racks = 3;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 64;
  Cluster cl(spec);
  const auto run =
      run_allreduce(cl, patterned_gradients(cl.num_workers(), 64));
  ASSERT_EQ(run.finished, 6);
  for (int r = 0; r < 3; ++r) {
    EXPECT_GT(cl.leaf(r).packets_received(), 0u);
    EXPECT_GT(cl.leaf(r).packets_transmitted(), 0u);
  }
  EXPECT_EQ(cl.spine().packets_received(), 3u);   // one partial per rack
  EXPECT_EQ(cl.spine().packets_transmitted(), 3u);  // one replica per rack
}

// Straggler detection across the leaf routers (paper §5 on a multi-rack
// topology): a silent worker in rack 1 must not stall the cluster — the
// rack's leaf ages the block, sends a degraded partial Result up, and the
// three live workers get a result rescaled by the contributor count.
TEST(ClusterTest, StragglerDetectionAcrossLeafRouters) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 64;
  Cluster cl(spec);
  for (int r = 0; r < 2; ++r) {
    cl.leaf_app(r).start_straggler_detection(/*threads=*/10,
                                             sim::Duration::millis(1));
  }

  int done = 0;
  std::vector<trioml::AllreduceResult> results(4);
  for (int w = 0; w < 3; ++w) {  // worker 3 (rack 1) never contributes
    std::vector<std::uint32_t> g(128, static_cast<std::uint32_t>(w + 1));
    cl.worker(w).start_allreduce(
        std::move(g), 1, [&results, &done, w](trioml::AllreduceResult r) {
          results[static_cast<std::size_t>(w)] = std::move(r);
          ++done;
        });
  }
  cl.simulator().run_until(sim::Time(sim::Duration::millis(20).ns()));
  cl.stop_straggler_detection();

  ASSERT_EQ(done, 3);
  // Sum over contributors {1, 2, 3} = 6, rescaled by src_cnt = 3.
  const float expect = trioml::dequantize(6) / 3.0f;
  for (int w = 0; w < 3; ++w) {
    const auto& r = results[static_cast<std::size_t>(w)];
    EXPECT_EQ(r.degraded_blocks, 1u) << "worker " << w;
    for (float v : r.grads) ASSERT_NEAR(v, expect, 1e-6f) << "worker " << w;
  }
  EXPECT_EQ(cl.leaf_app(1).stats().blocks_aged, 1u);
}

// The mltrain Slow-Worker-Pattern straggler generator drives cluster
// workers unmodified through inject_stragglers.
TEST(ClusterTest, SlowWorkerPatternInjection) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 64;
  Cluster cl(spec);
  mltrain::SlowWorkerPattern pattern(/*probability=*/1.0, cl.num_workers(),
                                     /*typical_iteration_ms=*/0.05,
                                     /*seed=*/7);
  const auto delays = inject_stragglers(cl, pattern);
  ASSERT_EQ(delays.size(), 4u);
  double total = 0;
  for (double d : delays) total += d;
  EXPECT_GT(total, 0.0);  // p = 1: at least one delay point fired

  // The allreduce still completes exactly; stalls only delay it.
  const auto run = run_allreduce(cl, patterned_gradients(4, 64));
  EXPECT_EQ(run.finished, 4);
  const auto baseline = testbed_baseline(spec, patterned_gradients(4, 64));
  EXPECT_TRUE(bit_identical(run.results, baseline));
}

// Cluster telemetry: per-tier link counters (shared registry cells =
// tier totals), per-router metric scopes, and the per-rack trace process
// rows with sampled counter tracks (docs/telemetry.md). The trace is the
// same file at one shard and at one shard per router.
TEST(ClusterTest, TelemetryTiersScopesAndRackTraceRows) {
  std::string serial_json;
  for (const int shards : {1, 3}) {
    telemetry::Telemetry telem(/*metrics=*/true, /*trace=*/true);
    ClusterSpec spec;
    spec.racks = 2;
    spec.workers_per_rack = 2;
    spec.grads_per_packet = 64;
    spec.shards = shards;
    spec.telemetry = &telem;
    Cluster cl(spec);
    ASSERT_EQ(cl.num_shards(), shards);

    cl.start_trace_sampling(sim::Duration::micros(20));
    const auto run =
        run_allreduce(cl, patterned_gradients(4, 64), /*gen_id=*/1,
                      sim::Time(sim::Duration::millis(5).ns()));
    cl.stop_trace_sampling();
    ASSERT_EQ(run.finished, 4);

    // Per-tier totals equal the sum of the member links' own counters.
    std::uint64_t host_up = 0, fabric_up = 0, fabric_down = 0;
    for (int w = 0; w < 4; ++w) host_up += cl.link(w).a_to_b().frames_sent();
    for (int r = 0; r < 2; ++r) {
      fabric_up += cl.fabric_link(r).a_to_b().frames_sent();
      fabric_down += cl.fabric_link(r).b_to_a().frames_sent();
    }
    EXPECT_EQ(telem.metrics.counter_value("cluster.tier.host.up.tx_frames"),
              host_up);
    EXPECT_EQ(telem.metrics.counter_value("cluster.tier.fabric.up.tx_frames"),
              fabric_up);
    EXPECT_EQ(
        telem.metrics.counter_value("cluster.tier.fabric.down.tx_frames"),
        fabric_down);
    EXPECT_EQ(telem.metrics.counter_value("cluster.tier.fabric.up.drops"),
              0u);

    // Per-router telemetry scopes keep every router's PFE metrics distinct.
    EXPECT_GT(telem.metrics.counter_value("rack0.pfe0.packets_in"), 0u);
    EXPECT_GT(telem.metrics.counter_value("rack1.pfe0.packets_in"), 0u);
    EXPECT_GT(telem.metrics.counter_value("spine.pfe0.packets_in"), 0u);
    EXPECT_GT(telem.metrics.counter_value("rack0.router.packets_received"),
              0u);

    // The trace carries per-router PFE processes plus the per-rack summary
    // rows with their sampled counter tracks.
    std::ostringstream os;
    telem.tracer.write_json(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"rack0.pfe0\""), std::string::npos);
    EXPECT_NE(json.find("\"rack1.pfe0\""), std::string::npos);
    EXPECT_NE(json.find("\"spine.pfe0\""), std::string::npos);
    EXPECT_NE(json.find("\"rack0\""), std::string::npos);
    EXPECT_NE(json.find("\"rack1\""), std::string::npos);
    EXPECT_NE(json.find("\"blocks_completed\""), std::string::npos);
    EXPECT_NE(json.find("\"uplink\""), std::string::npos);
    if (shards == 1) serial_json = json;
    EXPECT_EQ(json, serial_json) << "trace diverges at " << shards << " shards";
  }
}

// The engine clamps the shard count to [1, routers()]; nothing else
// overrides it. Parallel windows need positive lookahead, so a zero
// fabric latency at more than one shard is rejected, not run serially.
TEST(ClusterTest, ShardCountIsTakenAsGiven) {
  ClusterSpec spec;
  spec.shards = 0;
  EXPECT_EQ(Cluster(spec).num_shards(), 1);
  spec.shards = 8;
  EXPECT_EQ(Cluster(spec).num_shards(), spec.routers());

  ClusterSpec negative;
  negative.shards = -1;
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  ClusterSpec zero_lookahead;
  zero_lookahead.fabric_link.latency = sim::Duration::zero();
  zero_lookahead.shards = 2;
  EXPECT_THROW(Cluster{zero_lookahead}, std::invalid_argument);
  zero_lookahead.shards = 1;
  EXPECT_NO_THROW(Cluster{zero_lookahead});
}

}  // namespace
