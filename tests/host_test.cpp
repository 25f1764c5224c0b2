// Unit tests for the Trio-ML end-host worker: API contracts, window
// bookkeeping, quantised float allreduce, and result filtering.
#include <gtest/gtest.h>

#include "trioml/testbed.hpp"

namespace {

using namespace trioml;

TEST(Host, RejectsBadConfigs) {
  sim::Simulator sim;
  net::LinkEndpoint tx(sim, 100.0, sim::Duration::zero());
  TrioMlWorker::Config bad;
  bad.grads_per_packet = 0;
  EXPECT_THROW(TrioMlWorker(sim, bad, tx), std::invalid_argument);
  bad.grads_per_packet = 2000;  // > 1024
  EXPECT_THROW(TrioMlWorker(sim, bad, tx), std::invalid_argument);
  bad.grads_per_packet = 64;
  bad.window = 0;
  EXPECT_THROW(TrioMlWorker(sim, bad, tx), std::invalid_argument);
}

TEST(Host, RejectsConcurrentAllreduce) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  Testbed tb(cfg);
  tb.worker(0).start_allreduce({1, 2, 3}, 1, [](AllreduceResult) {});
  EXPECT_TRUE(tb.worker(0).busy());
  EXPECT_THROW(
      tb.worker(0).start_allreduce({4, 5, 6}, 2, [](AllreduceResult) {}),
      std::logic_error);
}

TEST(Host, WindowBoundsOutstandingPackets) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 64;
  cfg.window = 3;
  Testbed tb(cfg);
  // Only worker 0 sends: nothing completes, so exactly `window` packets
  // leave the NIC.
  std::vector<std::uint32_t> g(64 * 10, 1);
  tb.worker(0).start_allreduce(std::move(g), 1, [](AllreduceResult) {});
  tb.simulator().run_until(sim::Time(sim::Duration::millis(5).ns()));
  EXPECT_EQ(tb.worker(0).packets_sent(), 3u);
}

TEST(Host, FloatAllreduceAveragesAcrossWorkers) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 64;
  Testbed tb(cfg);
  int done = 0;
  std::vector<AllreduceResult> results(2);
  const std::vector<float> a = {0.5f, -1.25f, 3.0f, 0.0f};
  const std::vector<float> b = {1.5f, 0.25f, -1.0f, 2.0f};
  tb.worker(0).start_allreduce_float(a, 1, [&](AllreduceResult r) {
    results[0] = std::move(r);
    ++done;
  });
  tb.worker(1).start_allreduce_float(b, 1, [&](AllreduceResult r) {
    results[1] = std::move(r);
    ++done;
  });
  tb.simulator().run();
  ASSERT_EQ(done, 2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float expected = (a[i] + b[i]) / 2.0f;
    EXPECT_NEAR(results[0].grads[i], expected, 1e-3f);
    EXPECT_NEAR(results[1].grads[i], expected, 1e-3f);
  }
}

TEST(Host, IgnoresResultsFromOtherGenerationsAndJobs) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 8;
  Testbed tb(cfg);
  int done = 0;
  tb.worker(0).start_allreduce({1, 2, 3, 4, 5, 6, 7, 8}, /*gen=*/7,
                               [&](AllreduceResult) { ++done; });
  // Forge results with the wrong generation and the wrong job directly
  // into the worker: both must be ignored.
  TrioMlHeader hdr;
  hdr.job_id = cfg.job_id;
  hdr.block_id = 0;
  hdr.gen_id = 3;  // wrong generation
  hdr.grad_cnt = 8;
  std::vector<std::uint32_t> grads(8, 999);
  auto frame = build_aggregation_frame(
      {9, 9, 9, 9, 9, 9}, {8, 8, 8, 8, 8, 8},
      net::Ipv4Addr::from_octets(10, 0, 0, 254),
      net::Ipv4Addr::from_octets(239, 0, 0, 1), kTrioMlUdpPort, hdr, grads);
  tb.worker(0).receive(net::Packet::make(frame), 0);
  hdr.gen_id = 7;
  hdr.job_id = 42;  // wrong job
  auto frame2 = build_aggregation_frame(
      {9, 9, 9, 9, 9, 9}, {8, 8, 8, 8, 8, 8},
      net::Ipv4Addr::from_octets(10, 0, 0, 254),
      net::Ipv4Addr::from_octets(239, 0, 0, 1), kTrioMlUdpPort, hdr, grads);
  tb.worker(0).receive(net::Packet::make(frame2), 0);
  EXPECT_EQ(done, 0);
  EXPECT_EQ(tb.worker(0).results_received(), 0u);
}

TEST(Host, DuplicateResultIgnored) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 8;
  Testbed tb(cfg);
  int done = 0;
  for (int w = 0; w < 2; ++w) {
    tb.worker(w).start_allreduce({1, 1, 1, 1, 1, 1, 1, 1}, 1,
                                 [&](AllreduceResult) { ++done; });
  }
  tb.simulator().run();
  ASSERT_EQ(done, 2);
  const auto received = tb.worker(0).results_received();
  // Replay the same result: already-completed block, not counted again.
  TrioMlHeader hdr;
  hdr.job_id = cfg.job_id;
  hdr.block_id = 0;
  hdr.gen_id = 1;
  hdr.grad_cnt = 8;
  hdr.src_cnt = 2;
  std::vector<std::uint32_t> grads(8, 2);
  auto frame = build_aggregation_frame(
      {9, 9, 9, 9, 9, 9}, {8, 8, 8, 8, 8, 8},
      net::Ipv4Addr::from_octets(10, 0, 0, 254),
      net::Ipv4Addr::from_octets(239, 0, 0, 1), kTrioMlUdpPort, hdr, grads);
  tb.worker(0).receive(net::Packet::make(frame), 0);
  EXPECT_EQ(tb.worker(0).results_received(), received);
}

TEST(Host, ResultShorterThanItsGradCountIsDropped) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 8;
  Testbed tb(cfg);
  tb.worker(0).start_allreduce(std::vector<std::uint32_t>(16, 1), /*gen=*/1,
                               [](AllreduceResult) {});
  // Worker 1 never sends, so both blocks stay outstanding.
  tb.simulator().run_until(sim::Time(sim::Duration::millis(1).ns()));
  ASSERT_EQ(tb.worker(0).outstanding_blocks(), 2u);
  TrioMlHeader hdr;
  hdr.job_id = cfg.job_id;
  hdr.block_id = 0;
  hdr.gen_id = 1;
  hdr.src_cnt = 2;
  std::vector<std::uint32_t> grads(8, 2);
  const auto frame = build_aggregation_frame(
      {9, 9, 9, 9, 9, 9}, {8, 8, 8, 8, 8, 8},
      net::Ipv4Addr::from_octets(10, 0, 0, 254),
      net::Ipv4Addr::from_octets(239, 0, 0, 1), kTrioMlUdpPort, hdr, grads);
  // A corrupted grad_cnt (the low 12 bits of header bytes 10-11) claims
  // 16 gradients, which the worker's gradient vector has room for, but
  // the frame carries 8: dropped, block untouched.
  net::Buffer corrupted = frame;
  corrupted.set_u16(kTrioMlHdrOff + 10, 16);
  tb.worker(0).receive(net::Packet::make(corrupted), 0);
  EXPECT_EQ(tb.worker(0).malformed_results(), 1u);
  EXPECT_EQ(tb.worker(0).results_received(), 0u);
  EXPECT_EQ(tb.worker(0).outstanding_blocks(), 2u);
  // The intact result still completes the block.
  tb.worker(0).receive(net::Packet::make(frame), 0);
  EXPECT_EQ(tb.worker(0).results_received(), 1u);
  EXPECT_EQ(tb.worker(0).outstanding_blocks(), 1u);
}

TEST(Host, BlockLatencyMeasuredPerBlock) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 64;
  cfg.window = 2;
  Testbed tb(cfg);
  int done = 0;
  for (int w = 0; w < 2; ++w) {
    std::vector<std::uint32_t> g(64 * 5, 1);
    tb.worker(w).start_allreduce(std::move(g), 1,
                                 [&](AllreduceResult) { ++done; });
  }
  tb.simulator().run();
  ASSERT_EQ(done, 2);
  EXPECT_EQ(tb.worker(0).block_latency_us().count(), 5u);
  EXPECT_GT(tb.worker(0).block_latency_us().mean(), 0.0);
}

}  // namespace
