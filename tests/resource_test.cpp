// Resource-lifecycle invariants: slab pools drain back to full, dispatch
// overflow degrades gracefully, and SwitchML-256 outperforms SwitchML-64
// (the §6.1 claim justifying the paper's choice of baseline variant).
#include <gtest/gtest.h>

#include <stdexcept>

#include "switchml/switchml.hpp"
#include "trioml/testbed.hpp"

namespace {

using namespace trioml;

TEST(SlabPool, ReturnsToFullAfterCleanWorkload) {
  TestbedConfig cfg;
  cfg.num_workers = 3;
  cfg.grads_per_packet = 256;
  cfg.window = 8;
  cfg.slab_pool = 64;
  Testbed tb(cfg);
  int done = 0;
  for (int w = 0; w < 3; ++w) {
    std::vector<std::uint32_t> g(256 * 50, 1);
    tb.worker(w).start_allreduce(std::move(g), 1,
                                 [&](AllreduceResult) { ++done; });
  }
  tb.simulator().run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(tb.app(0).free_slab_count(), tb.app(0).slab_pool_size())
      << "every slab must be recycled after the blocks complete";
}

TEST(SlabPool, ReturnsToFullAfterAgedWorkload) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 64;
  cfg.window = 4;
  cfg.slab_pool = 32;
  Testbed tb(cfg);
  tb.start_straggler_detection(10, sim::Duration::millis(2));
  int done = 0;
  std::vector<std::uint32_t> g(64 * 12, 1);
  tb.worker(0).start_allreduce(std::move(g), 1,
                               [&](AllreduceResult) { ++done; });
  tb.simulator().run_until(sim::Time(sim::Duration::millis(100).ns()));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(tb.app(0).free_slab_count(), tb.app(0).slab_pool_size())
      << "aged blocks must release their slabs too";
}

TEST(SlabPool, SlabsKeepTheAddressesOfASlabAtATimeAllocation) {
  // Slab i lies at a fixed stride from each base: the addresses that
  // bump-allocating one record and one buffer per slab hands out, and the
  // last slab is allocated first.
  constexpr std::size_t kSlabs = 5;
  sim::Simulator sim;
  trio::Router reference(sim, trio::Calibration{}, 1, 1, "reference");
  trio::Router router(sim, trio::Calibration{}, 1, 1, "router");
  auto& ref_sms = reference.pfe(0).sms();
  std::vector<TrioMlApp::Slab> expected;
  for (std::size_t i = 0; i < kSlabs; ++i) {
    TrioMlApp::Slab slab;
    slab.record_addr = ref_sms.alloc_sram(kBlockSlabBytes, 64);
    slab.buffer_addr = ref_sms.alloc_dram(kMaxGradsPerPacket * 4, 64);
    expected.push_back(slab);
  }
  TrioMlApp app(router.pfe(0), kSlabs);
  for (std::size_t i = kSlabs; i-- > 0;) {
    const auto slab = app.alloc_slab();
    ASSERT_TRUE(slab.has_value());
    EXPECT_EQ(slab->record_addr, expected[i].record_addr) << "slab " << i;
    EXPECT_EQ(slab->buffer_addr, expected[i].buffer_addr) << "slab " << i;
  }
  EXPECT_FALSE(app.alloc_slab().has_value());
  auto& sms = router.pfe(0).sms();
  EXPECT_EQ(sms.alloc_sram(8, 8), ref_sms.alloc_sram(8, 8));
  EXPECT_EQ(sms.alloc_dram(8, 8), ref_sms.alloc_dram(8, 8));

  // Only a slab's record address names a slab.
  const TrioMlApp::Slab& first = expected.front();
  const TrioMlApp::Slab& last = expected.back();
  EXPECT_THROW(app.free_slab(first.record_addr + 8), std::logic_error);
  EXPECT_THROW(app.free_slab(first.buffer_addr), std::logic_error);
  EXPECT_THROW(app.quarantine_slab(last.record_addr + kBlockSlabBytes),
               std::logic_error);
  EXPECT_EQ(app.free_slab_count(), 0u);
  app.free_slab(expected[2].record_addr);
  const auto again = app.alloc_slab();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->buffer_addr, expected[2].buffer_addr);
}

TEST(SlabPool, FreedBuffersAreZeroedForReuse) {
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 64;
  cfg.window = 1;
  cfg.slab_pool = 1;  // every block reuses the single slab
  Testbed tb(cfg);
  // With one slab, simultaneous creators can race it away from each
  // other; retransmission is the recovery path (as for any loss).
  for (int w = 0; w < 2; ++w) {
    tb.worker(w).enable_retransmit(sim::Duration::millis(1));
  }
  int done = 0;
  std::vector<AllreduceResult> results(2);
  for (int w = 0; w < 2; ++w) {
    std::vector<std::uint32_t> g(64 * 6, 3);
    tb.worker(w).start_allreduce(std::move(g), 1,
                                 [&, w](AllreduceResult r) {
                                   results[static_cast<std::size_t>(w)] = std::move(r);
                                   ++done;
                                 });
  }
  tb.simulator().run_until(sim::Time(sim::Duration::seconds(1).ns()));
  ASSERT_EQ(done, 2);
  // If stale sums leaked between blocks, later gradients would exceed 6.
  for (float v : results[0].grads) {
    EXPECT_NEAR(v, dequantize(6) / 2.0f, 1e-6f);
  }
}

TEST(DispatchOverflow, DropsCountedAndRecoveredByRetransmit) {
  trio::Calibration cal;
  cal.dispatch_queue_limit = 8;  // tiny ingress buffer
  cal.ppes_per_pfe = 1;
  cal.threads_per_ppe = 2;
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 256;
  cfg.window = 64;  // way beyond 2 threads + 8 queue slots
  cfg.cal = cal;
  Testbed tb(cfg);
  for (int w = 0; w < 2; ++w) {
    tb.worker(w).enable_retransmit(sim::Duration::millis(1));
  }
  int done = 0;
  for (int w = 0; w < 2; ++w) {
    std::vector<std::uint32_t> g(256 * 64, 1);
    tb.worker(w).start_allreduce(std::move(g), 1,
                                 [&](AllreduceResult) { ++done; });
  }
  tb.simulator().run_until(sim::Time(sim::Duration::seconds(2).ns()));
  EXPECT_EQ(done, 2);
  EXPECT_GT(tb.router().pfe(0).packets_dropped_dispatch(), 0u);
  EXPECT_EQ(tb.app(0).stats().blocks_completed, 64u);
}

// ---------------------------------------------------------------------------
// SwitchML-256 vs SwitchML-64 (paper §6.1: "SwitchML-256 performs better
// than SwitchML-64; therefore, in our evaluations, we use SwitchML-256").

double switchml_allreduce_us(int grads_per_packet) {
  sim::Simulator sim;
  pisa::SwitchConfig scfg;
  pisa::Switch sw(sim, scfg);
  switchml::SwitchMlConfig cfg;
  cfg.num_workers = 4;
  cfg.pool_size = 64;
  cfg.grads_per_packet = grads_per_packet;
  std::vector<int> ports{0, 1, 2, 3};
  switchml::SwitchMlAggregator agg(sw, cfg, ports);

  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<switchml::SwitchMlWorker>> workers;
  int done = 0;
  sim::Time finish;
  for (int i = 0; i < 4; ++i) {
    links.push_back(
        std::make_unique<net::Link>(sim, 100.0, sim::Duration::micros(1)));
    switchml::SwitchMlWorker::Config wc;
    wc.worker_id = static_cast<std::uint8_t>(i);
    wc.num_workers = 4;
    wc.pool_size = 64;
    wc.grads_per_packet = grads_per_packet;
    wc.ip = net::Ipv4Addr::from_octets(10, 1, 0, static_cast<std::uint8_t>(i + 1));
    wc.switch_ip = net::Ipv4Addr::from_octets(10, 1, 0, 254);
    workers.push_back(std::make_unique<switchml::SwitchMlWorker>(
        sim, wc, links.back()->a_to_b()));
    links.back()->attach(*workers.back(), 0, sw, i);
    sw.attach_port(i, links.back()->b_to_a());
  }
  const std::size_t total = 256 * 64;  // same gradient volume both ways
  for (auto& w : workers) {
    std::vector<std::uint32_t> g(total, 1);
    w->start_allreduce(std::move(g), 1, [&](std::vector<std::uint32_t>) {
      ++done;
      finish = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(done, 4);
  return finish.us();
}

TEST(SwitchMlVariants, TwoFiftySixBeatsSixtyFour) {
  const double us_64 = switchml_allreduce_us(64);
  const double us_256 = switchml_allreduce_us(256);
  EXPECT_LT(us_256, us_64)
      << "4x fewer packets for the same gradients must finish sooner";
}

}  // namespace
