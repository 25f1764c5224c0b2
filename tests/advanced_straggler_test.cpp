// Tests for §5's "Advanced straggler mitigation": frequent detection
// threads charge per-source event counters; an infrequent classifier
// thread distinguishes temporary from permanent stragglers and notifies
// the workers in-band.
#include <gtest/gtest.h>

#include "trioml/advanced_straggler.hpp"
#include "trioml/testbed.hpp"

namespace {

using namespace trioml;

std::vector<std::uint32_t> grads(std::size_t n) {
  return std::vector<std::uint32_t>(n, 1);
}

/// A profiled testbed with 20 detection threads aging blocks after 2 ms.
std::unique_ptr<Testbed> profiled_testbed(int workers) {
  TestbedConfig cfg;
  cfg.num_workers = workers;
  cfg.grads_per_packet = 64;
  cfg.window = 8;
  auto tb = std::make_unique<Testbed>(cfg);
  tb->app(0).enable_straggler_profiling(cfg.job_id);
  tb->start_straggler_detection(20, sim::Duration::millis(2));
  return tb;
}

class AdvancedStragglerTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 4;

  AdvancedStragglerTest() : tb(profiled_testbed(kWorkers)) {}

  /// Runs one allreduce round where `straggler` skips it entirely.
  void round_without(int straggler, std::uint16_t gen) {
    for (int w = 0; w < kWorkers; ++w) {
      if (w == straggler) continue;
      tb->worker(w).start_allreduce(grads(64 * 4), gen,
                                    [](AllreduceResult) {});
    }
    tb->simulator().run_until(tb->simulator().now() +
                              sim::Duration::millis(10));
  }

  /// Runs one healthy round with everyone participating.
  void healthy_round(std::uint16_t gen) {
    for (int w = 0; w < kWorkers; ++w) {
      tb->worker(w).start_allreduce(grads(64 * 4), gen,
                                    [](AllreduceResult) {});
    }
    tb->simulator().run_until(tb->simulator().now() +
                              sim::Duration::millis(10));
  }

  std::unique_ptr<Testbed> tb;
};

TEST_F(AdvancedStragglerTest, DetectionChargesMissingSourcesOnly) {
  round_without(/*straggler=*/3, 1);
  auto& sms = tb->router().pfe(0).sms();
  const auto& app = tb->app(0);
  // Worker 3 accumulated events (one per aged block); the others none.
  EXPECT_GT(sms.peek_u64(app.straggler_event_counter_addr(1, 3)), 0u);
  for (std::uint8_t w = 0; w < 3; ++w) {
    EXPECT_EQ(sms.peek_u64(app.straggler_event_counter_addr(1, w)), 0u)
        << "worker " << int(w);
  }
  EXPECT_GT(app.stats().straggler_events, 0u);

  // Five of eight sources miss every block: a scan that ages one queues
  // six posted actions (the active-slot release and five charges), more
  // than its action queue's first block holds.
  auto wide = profiled_testbed(8);
  for (int w = 0; w < 3; ++w) {
    wide->worker(w).start_allreduce(grads(64 * 4), 1, [](AllreduceResult) {});
  }
  wide->simulator().run_until(wide->simulator().now() +
                              sim::Duration::millis(10));
  auto& wide_sms = wide->router().pfe(0).sms();
  const auto& wide_app = wide->app(0);
  const std::uint64_t charged =
      wide_sms.peek_u64(wide_app.straggler_event_counter_addr(1, 3));
  EXPECT_GT(charged, 0u);
  for (std::uint8_t w = 0; w < 8; ++w) {
    EXPECT_EQ(wide_sms.peek_u64(wide_app.straggler_event_counter_addr(1, w)),
              w < 3 ? 0u : charged)
        << "worker " << int(w);
  }
  // All four blocks aged, each charging the five missing sources.
  EXPECT_EQ(wide_app.stats().straggler_events, 4u * 5u);
}

TEST_F(AdvancedStragglerTest, TemporaryStragglerNotified) {
  tb->app(0).start_straggler_classification(1, sim::Duration::millis(8),
                                            /*permanent_after=*/3);
  round_without(3, 1);
  healthy_round(2);
  tb->simulator().run_until(tb->simulator().now() +
                            sim::Duration::millis(20));

  // Every healthy worker heard that source 3 straggled, classified
  // temporary (it recovered before the permanent threshold).
  bool permanent_seen = false;
  for (int w = 0; w < 3; ++w) {
    const auto& notices = tb->worker(w).straggler_notices();
    ASSERT_FALSE(notices.empty()) << "worker " << w;
    EXPECT_EQ(notices.front().src, 3);
    for (const auto& n : notices) permanent_seen |= n.permanent;
  }
  EXPECT_FALSE(permanent_seen);
  EXPECT_GT(tb->app(0).stats().straggler_notices_sent, 0u);
}

TEST_F(AdvancedStragglerTest, PermanentStragglerEscalated) {
  tb->app(0).start_straggler_classification(1, sim::Duration::millis(8),
                                            /*permanent_after=*/3);
  // Worker 3 misses many consecutive rounds spanning several
  // classification windows.
  for (std::uint16_t gen = 1; gen <= 6; ++gen) round_without(3, gen);
  tb->simulator().run_until(tb->simulator().now() +
                            sim::Duration::millis(30));

  bool permanent_seen = false;
  for (const auto& n : tb->worker(0).straggler_notices()) {
    if (n.permanent) {
      permanent_seen = true;
      EXPECT_EQ(n.src, 3);
      EXPECT_GE(n.consecutive_windows, 3);
    }
  }
  EXPECT_TRUE(permanent_seen)
      << "a source missing for many windows must be declared permanent";
}

TEST_F(AdvancedStragglerTest, HealthyJobProducesNoNotices) {
  tb->app(0).start_straggler_classification(1, sim::Duration::millis(8), 3);
  for (std::uint16_t gen = 1; gen <= 4; ++gen) healthy_round(gen);
  tb->simulator().run_until(tb->simulator().now() +
                            sim::Duration::millis(30));
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(tb->worker(w).straggler_notices().empty()) << "worker " << w;
  }
  EXPECT_EQ(tb->app(0).stats().straggler_notices_sent, 0u);
}

TEST_F(AdvancedStragglerTest, NotificationsDoNotDisturbAggregation) {
  tb->app(0).start_straggler_classification(1, sim::Duration::millis(5), 3);
  round_without(3, 1);
  const auto completed_before = tb->app(0).stats().blocks_completed;
  // A healthy round must still aggregate exactly, notices flying around
  // or not.
  int done = 0;
  std::vector<AllreduceResult> results(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    tb->worker(w).start_allreduce(grads(64), 2, [&, w](AllreduceResult r) {
      results[static_cast<std::size_t>(w)] = std::move(r);
      ++done;
    });
  }
  tb->simulator().run_until(tb->simulator().now() +
                            sim::Duration::millis(20));
  ASSERT_EQ(done, kWorkers);
  for (const auto& r : results) {
    EXPECT_EQ(r.degraded_blocks, 0u);
    for (float v : r.grads) {
      EXPECT_NEAR(v, dequantize(kWorkers) / kWorkers, 1e-6f);
    }
  }
  EXPECT_GT(tb->app(0).stats().blocks_completed, completed_before);
}

TEST(TimerGroups, DetectionAndClassificationRunConcurrently) {
  // The two timer-thread types of §5 coexist as independent groups.
  TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 64;
  Testbed tb(cfg);
  tb.start_straggler_detection(10, sim::Duration::millis(2));
  const int group =
      tb.app(0).start_straggler_classification(1, sim::Duration::millis(10));
  auto& timers = tb.router().pfe(0).timers();
  EXPECT_EQ(timers.count(), 11);  // 10 detectors + 1 classifier

  tb.simulator().run_until(sim::Time(sim::Duration::millis(50).ns()));
  const auto fires_with_both = timers.fires();
  EXPECT_GT(fires_with_both, 200u);

  timers.stop_group(group);
  EXPECT_EQ(timers.count(), 10);
  EXPECT_TRUE(timers.running());
  timers.stop();
  EXPECT_FALSE(timers.running());
}

}  // namespace
