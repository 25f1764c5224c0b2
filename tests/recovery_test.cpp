// Self-healing control plane (src/recovery/, docs/recovery.md).
//
// Covers the phi-accrual estimator, hash-table generation epochs (the
// O(1) power-loss invalidation substrate), heartbeat death/revival
// detection with a bounded detection latency and a deterministic replay
// digest, the acceptance scenario — a spine killed mid-allreduce fails
// over to the backup spine and the result stays bit-identical to the
// fault-free run — the combined chaos schedule (burst loss + kill), the
// worker crash-teardown epoch regression, and kill/revive convergence on
// the single-router testbed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "recovery/recovery.hpp"
#include "sim/digest.hpp"
#include "trio/hash_table.hpp"
#include "trioml/testbed.hpp"
#include "vigil/invariants.hpp"

namespace {

using cluster::Cluster;
using cluster::ClusterSpec;
using faults::FaultInjector;
using faults::FaultSchedule;
using recovery::HeartbeatConfig;
using recovery::PhiEstimator;
using recovery::RecoveryConfig;
using recovery::RecoveryManager;

sim::Time at_us(std::int64_t us) {
  return sim::Time() + sim::Duration::micros(us);
}

// Each result's gradient bits plus its degraded-block count:
// bit-identical results <=> equal digests.
std::uint64_t digest_results(
    const std::vector<trioml::AllreduceResult>& results) {
  sim::Digest d;
  for (const auto& r : results) {
    d.u64(r.grads.size()).u64(r.degraded_blocks);
    d.bytes(r.grads.data(), r.grads.size() * sizeof(float));
  }
  return d.value();
}

// --- Phi estimator ---------------------------------------------------------

TEST(PhiEstimator, AccruesSuspicionWithSilence) {
  PhiEstimator est;
  EXPECT_FALSE(est.primed());
  EXPECT_DOUBLE_EQ(est.phi(at_us(1000)), 0.0);  // unprimed = no suspicion

  for (int i = 0; i <= 10; ++i) est.observe(at_us(i * 100));
  EXPECT_TRUE(est.primed());
  EXPECT_NEAR(est.mean_interval_ns(), 100'000.0, 1.0);

  const sim::Time last = at_us(1000);
  EXPECT_DOUBLE_EQ(est.phi(last), 0.0);  // no silence yet
  const double one_period = est.phi(at_us(1100));
  const double five_periods = est.phi(at_us(1500));
  EXPECT_GT(one_period, 0.0);
  EXPECT_NEAR(five_periods, 5.0 * one_period, 1e-9);  // linear in silence
  // phi 8 ~= 18.42 quiet periods under the exponential model.
  EXPECT_LT(est.phi(at_us(1000 + 1800)), 8.0);
  EXPECT_GT(est.phi(at_us(1000 + 1900)), 8.0);
}

TEST(PhiEstimator, TracksChangingIntervalWithEwma) {
  PhiEstimator est(/*alpha=*/0.5);
  est.observe(at_us(0));
  est.observe(at_us(100));  // mean = 100us
  EXPECT_NEAR(est.mean_interval_ns(), 100'000.0, 1.0);
  est.observe(at_us(400));  // interval 300us, alpha .5 -> mean 200us
  EXPECT_NEAR(est.mean_interval_ns(), 200'000.0, 1.0);
}

// --- Hash-table generation epochs ------------------------------------------

TEST(HashGenerations, BumpInvalidatesUnpinnedButKeepsPinned) {
  sim::Simulator sim;
  trio::Calibration cal;
  trio::HwHashTable table(sim, cal, /*buckets=*/64);

  ASSERT_TRUE(table.insert(/*key=*/1, /*value=*/10, /*pinned=*/true));
  ASSERT_TRUE(table.insert(/*key=*/2, /*value=*/20));
  ASSERT_TRUE(table.insert(/*key=*/3, /*value=*/30));
  EXPECT_EQ(table.size(), 3u);

  EXPECT_EQ(table.bump_generation(), 1u);
  // Unpinned records vanish from every read path at the bump instant.
  EXPECT_FALSE(table.contains(2));
  EXPECT_FALSE(table.lookup(3).has_value());
  EXPECT_TRUE(table.contains(1));  // pinned survives
  const auto live = table.entries();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].first, 1u);

  // Re-inserting an invalidated key works (fresh record, new generation).
  EXPECT_TRUE(table.insert(2, 22));
  EXPECT_EQ(table.lookup(2).value(), 22u);
}

TEST(HashGenerations, SweepStaleReclaimsEagerlyAndReportsRecords) {
  sim::Simulator sim;
  trio::Calibration cal;
  trio::HwHashTable table(sim, cal, /*buckets=*/64);
  table.insert(1, 10, /*pinned=*/true);
  table.insert(2, 20);
  table.insert(3, 30);
  table.bump_generation();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> reclaimed;
  const std::size_t n = table.sweep_stale(
      [&](std::uint64_t k, std::uint64_t v) { reclaimed.push_back({k, v}); });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(reclaimed.size(), 2u);
  EXPECT_EQ(table.size(), 1u);  // only the pinned record remains
  EXPECT_EQ(table.stale_reclaimed(), 2u);
  // A second sweep finds nothing.
  EXPECT_EQ(table.sweep_stale([](std::uint64_t, std::uint64_t) {}), 0u);
}

TEST(HashGenerations, ScansNeverReportStaleRecords) {
  sim::Simulator sim;
  trio::Calibration cal;
  trio::HwHashTable table(sim, cal, /*buckets=*/16);
  for (std::uint64_t k = 0; k < 32; ++k) table.insert(k, k);
  table.bump_generation();
  // A straggler-detection scan racing the bump must not age out (and so
  // claim) invalidated buckets: stale records are silently reclaimed.
  std::size_t reported = 0;
  for (std::uint32_t part = 0; part < 4; ++part) {
    reported += table.scan_partition(part, 4).size();
  }
  EXPECT_EQ(reported, 0u);
  EXPECT_EQ(table.size(), 0u);
}

// --- Heartbeat liveness ----------------------------------------------------

HeartbeatConfig fast_heartbeats() {
  HeartbeatConfig hb;
  hb.period = sim::Duration::micros(20);
  hb.check_period = sim::Duration::micros(10);
  hb.phi_threshold = 4.0;
  return hb;
}

TEST(Heartbeat, DetectsDeathWithinBoundAndSeesRevival) {
  auto run_once = [](std::uint64_t* digest) {
    ClusterSpec spec;
    spec.racks = 2;
    spec.workers_per_rack = 2;
    spec.grads_per_packet = 128;
    spec.slab_pool = 256;
    Cluster cl(spec);
    recovery::HeartbeatMonitor monitor(cl.simulator(), nullptr,
                                       fast_heartbeats());
    const int spine_idx = monitor.watch("spine", cl.spine());
    monitor.watch("rack0", cl.leaf(0));
    monitor.start();

    cl.simulator().run_until(at_us(500));
    EXPECT_FALSE(monitor.dead(spine_idx));
    EXPECT_GT(monitor.heartbeats(), 0u);

    const sim::Time killed_at = cl.simulator().now();
    cl.spine().kill();
    cl.simulator().run_until(at_us(2000));
    EXPECT_TRUE(monitor.dead(spine_idx));
    EXPECT_EQ(monitor.deaths_declared(), 1u);
    // Detection bound: phi 4 is ~9.2 quiet periods of 20us; allow EWMA
    // drift and check-period quantization up to 400us.
    ASSERT_EQ(monitor.log().size(), 1u);
    const sim::Duration latency = monitor.log()[0].at - killed_at;
    EXPECT_GT(latency.ns(), 0);
    EXPECT_LT(latency.us(), 400.0);

    cl.spine().revive();
    cl.simulator().run_until(at_us(3000));
    EXPECT_FALSE(monitor.dead(spine_idx));
    EXPECT_EQ(monitor.revivals_detected(), 1u);
    monitor.stop();
    *digest = monitor.digest();
  };
  std::uint64_t d1 = 0, d2 = 0;
  run_once(&d1);
  run_once(&d2);
  EXPECT_EQ(d1, d2);  // deterministic replay
}

// --- Failover acceptance ---------------------------------------------------

struct FailoverRun {
  cluster::AllreduceRun run;
  std::uint64_t result_digest = 0;
  std::uint64_t fault_digest = 0;
  std::uint64_t recovery_digest = 0;
  std::uint64_t failovers = 0;
  std::uint64_t blocks_invalidated = 0;
  std::uint64_t retransmissions = 0;
  double recovery_us = 0.0;  // death declaration -> failover complete
};

// 8 workers / 2 racks with a standby spine and hardened retransmit; the
// optional schedule is armed on a telemetry-instrumented injector.
FailoverRun run_failover(const std::string& schedule_text) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 512;
  spec.backup_spine = true;
  // 10G access links stretch the epoch to ~hundreds of us so a kill in
  // the tens of us lands squarely mid-stream.
  spec.host_link.gbps = 10.0;
  telemetry::Telemetry telem(/*metrics_on=*/true, /*trace_on=*/false);
  spec.telemetry = &telem;
  Cluster cl(spec);
  for (int w = 0; w < 8; ++w) {
    cl.worker(w).enable_hardened_retransmit(sim::Duration::millis(1),
                                            /*retry_budget=*/50,
                                            sim::Duration::millis(8));
  }
  RecoveryConfig rc;
  rc.heartbeat = fast_heartbeats();
  RecoveryManager mgr(cl, rc);
  mgr.start();

  FaultInjector injector(cl.simulator(), &telem);
  injector.bind(cl);
  if (!schedule_text.empty()) {
    injector.arm(FaultSchedule::parse(schedule_text));
  }

  // 256 blocks per worker: the fault-free run spans several hundred us,
  // so a kill at ~120us lands mid-epoch with blocks in flight.
  const auto grads = cluster::patterned_gradients(8, 128 * 256);
  FailoverRun out;
  out.run = cluster::run_allreduce(
      cl, grads, /*gen_id=*/1, sim::Time(sim::Duration::millis(80).ns()));
  mgr.stop();

  out.result_digest = digest_results(out.run.results);
  out.fault_digest = injector.digest();
  out.recovery_digest = mgr.digest();
  out.failovers = mgr.failovers();
  out.blocks_invalidated = injector.blocks_invalidated();
  for (int w = 0; w < 8; ++w) {
    out.retransmissions += cl.worker(w).retransmissions();
  }
  if (mgr.failovers() > 0) {
    out.recovery_us = (mgr.last_failover_at() - mgr.last_death_at()).us() +
                      (mgr.last_death_at() - sim::Time()).us();
  }
  return out;
}

TEST(Failover, SpineKillMidEpochConvergesBitIdentical) {
  const FailoverRun baseline = run_failover("");
  ASSERT_EQ(baseline.run.finished, 8);
  EXPECT_EQ(baseline.failovers, 0u);
  // The kill instant below lands mid-allreduce in the fault-free run.
  EXPECT_GT(baseline.run.finish, at_us(60));

  const FailoverRun killed = run_failover("at 60us kill spine");
  ASSERT_EQ(killed.run.finished, 8);
  EXPECT_EQ(killed.failovers, 1u);
  EXPECT_GT(killed.blocks_invalidated, 0u);  // spine died holding blocks
  EXPECT_GT(killed.retransmissions, 0u);     // workers re-contributed

  // The whole point: the recovered result is bit-identical to the
  // fault-free run (integer aggregation + src-mask dedup).
  EXPECT_TRUE(cluster::bit_identical(baseline.run.results, killed.run.results));
  EXPECT_EQ(baseline.result_digest, killed.result_digest);
  for (const auto& r : killed.run.results) {
    EXPECT_EQ(r.degraded_blocks, 0u);
  }
  // And the flat single-router baseline agrees too.
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 512;
  const auto flat = cluster::testbed_baseline(
      spec, cluster::patterned_gradients(8, 128 * 256));
  EXPECT_TRUE(cluster::bit_identical(flat, killed.run.results));
}

TEST(Failover, SameSeedReplaysIdenticalDigests) {
  const FailoverRun a = run_failover("at 60us kill spine");
  const FailoverRun b = run_failover("at 60us kill spine");
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.recovery_digest, b.recovery_digest);
  EXPECT_EQ(a.result_digest, b.result_digest);
  EXPECT_EQ(a.run.finished, b.run.finished);
}

// Satellite: combined chaos — burst loss on every host link while the
// spine dies mid-epoch. Still bit-identical, still replayable.
TEST(Failover, ChaosKillPlusBurstLossStaysBitIdentical) {
  // Burst loss on the contribution direction only: a lost *result* to a
  // single worker is unrecoverable bit-identically by design (the other
  // workers have the result and will not re-contribute; only aging could
  // unblock it, and aging degrades). Lost contributions are exactly what
  // the retransmit path recovers.
  const std::string chaos = R"(
at 0us   burst host:*.up p_enter=0.02 p_exit=0.2 for 2ms
at 60us kill spine
)";
  const FailoverRun baseline = run_failover("");
  const FailoverRun a = run_failover(chaos);
  const FailoverRun b = run_failover(chaos);
  ASSERT_EQ(a.run.finished, 8);
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_TRUE(cluster::bit_identical(baseline.run.results, a.run.results));
  for (const auto& r : a.run.results) EXPECT_EQ(r.degraded_blocks, 0u);
  // Golden deterministic replay: chaos or not, same seed -> same digests.
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.recovery_digest, b.recovery_digest);
  EXPECT_EQ(a.result_digest, b.result_digest);
}

// Satellite: a leaf router has no standby, so killing one for good is
// unrecoverable by failover — the cluster must still complete *cleanly
// degraded* instead of wedging. Rack-0 workers lose their aggregation
// path; the give-up grace abandons their unfinished blocks after the
// retry budget stops helping, straggler aging drains the half-built
// blocks the dead leaf stranded at the spine, and every runtime
// invariant still holds on the drained cluster.
TEST(Failover, LeafKillWithoutStandbyCompletesDegraded) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 512;
  spec.host_link.gbps = 10.0;
  Cluster cl(spec);
  for (int w = 0; w < 8; ++w) {
    cl.worker(w).enable_hardened_retransmit(sim::Duration::millis(1),
                                            /*retry_budget=*/6,
                                            sim::Duration::millis(8));
    cl.worker(w).enable_give_up(sim::Duration::millis(10));
  }
  cl.start_straggler_detection(/*threads=*/10, sim::Duration::millis(1));
  RecoveryConfig rc;
  rc.heartbeat = fast_heartbeats();
  RecoveryManager mgr(cl, rc);
  mgr.start();

  FaultInjector injector(cl.simulator(), /*telemetry=*/nullptr);
  injector.bind(cl);
  injector.arm(FaultSchedule::parse("at 60us kill leaf:0"));

  const sim::Time deadline = sim::Time(sim::Duration::millis(80).ns());
  const auto grads = cluster::patterned_gradients(8, 128 * 256);
  const cluster::AllreduceRun run =
      cluster::run_allreduce(cl, grads, /*gen_id=*/1, deadline);
  mgr.stop();
  cl.stop_straggler_detection();

  // Every worker completes and well before the deadline: no wedge.
  EXPECT_EQ(run.finished, 8);
  EXPECT_LT(run.finish, deadline);
  EXPECT_EQ(mgr.failovers(), 0u);  // nothing to fail over to

  // The completion is degraded, not silently lossy: rack-0 workers
  // abandoned blocks via the give-up path and say so.
  std::uint64_t abandoned = 0, retransmits = 0;
  for (int w = 0; w < 8; ++w) {
    abandoned += cl.worker(w).abandoned_blocks();
    retransmits += cl.worker(w).retransmissions();
  }
  EXPECT_GT(abandoned, 0u);
  // Retransmits are bounded by the budget, not an unbounded retry storm.
  EXPECT_LE(retransmits, 8u * 256u * 6u);

  // The drained cluster still satisfies the invariant catalogue.
  cl.simulator().run_until(cl.simulator().now() + sim::Duration::millis(60));
  vigil::InvariantEngine inv(cl);
  if (cl.simulator().pending()) {
    inv.check_conservation();
  } else {
    inv.check_quiescent();
  }
  for (const auto& v : inv.violations()) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(Failover, RejoinRestoresPrimaryAfterRevival) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 256;
  spec.backup_spine = true;
  Cluster cl(spec);
  RecoveryConfig rc;
  rc.heartbeat = fast_heartbeats();
  rc.auto_rejoin = true;
  RecoveryManager mgr(cl, rc);
  mgr.start();

  FaultInjector injector(cl.simulator(), nullptr);
  injector.bind(cl);
  injector.arm(FaultSchedule::parse(R"(
at 200us kill spine
at 2ms   revive spine
)"));

  cl.simulator().run_until(at_us(1500));
  EXPECT_TRUE(mgr.spine_dead());
  EXPECT_TRUE(cl.on_backup_spine());
  EXPECT_EQ(mgr.failovers(), 1u);

  cl.simulator().run_until(at_us(4000));
  EXPECT_FALSE(mgr.spine_dead());
  EXPECT_FALSE(cl.on_backup_spine());
  EXPECT_EQ(mgr.rejoins(), 1u);
  mgr.stop();
}

TEST(Failover, WithoutBackupSpineFailoverThrowsAndManagerRecordsDeath) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 256;
  Cluster cl(spec);
  EXPECT_THROW(cl.fail_over_to_backup(), std::logic_error);

  RecoveryConfig rc;
  rc.heartbeat = fast_heartbeats();
  RecoveryManager mgr(cl, rc);
  mgr.start();
  cl.simulator().schedule_at(at_us(200), [&] { cl.spine().kill(); });
  cl.simulator().run_until(at_us(2000));
  EXPECT_TRUE(mgr.spine_dead());
  EXPECT_EQ(mgr.failovers(), 0u);  // nowhere to go; death still logged
  ASSERT_FALSE(mgr.log().empty());
  mgr.stop();
}

// --- Worker crash-teardown epochs (regression) -----------------------------

// A crashed worker's in-flight retransmit timers must not fire against
// the next incarnation's state: block ids repeat across allreduces, so a
// stale timer would find the new incarnation's outstanding entry, burn
// its retry budget and resend spuriously. The allreduce epoch captured
// by every scheduled callback makes teardown exact.
TEST(WorkerEpochs, CrashTeardownSilencesStaleRetransmitTimers) {
  trioml::TestbedConfig tc;
  tc.num_workers = 1;
  tc.grads_per_packet = 128;
  tc.slab_pool = 512;
  trioml::Testbed tb(tc);
  auto& w = tb.worker(0);
  w.enable_hardened_retransmit(sim::Duration::micros(50),
                               /*retry_budget=*/10,
                               sim::Duration::millis(1));

  std::vector<std::uint32_t> grads(128 * 64, 7);
  int done_count = 0;
  trioml::AllreduceResult last;
  const auto on_done = [&](trioml::AllreduceResult r) {
    ++done_count;
    last = std::move(r);
  };

  EXPECT_EQ(w.allreduce_epoch(), 0u);
  w.start_allreduce(grads, /*gen_id=*/1, on_done);
  EXPECT_EQ(w.allreduce_epoch(), 1u);
  // Crash mid-flight (retransmit timers armed at ~50us), restart, and
  // immediately run the same allreduce again under the same gen_id.
  tb.simulator().schedule_at(at_us(2), [&] {
    w.crash();
    w.restart();
    w.start_allreduce(grads, /*gen_id=*/1, on_done);
  });
  tb.simulator().run();

  EXPECT_EQ(w.allreduce_epoch(), 3u);  // start, crash, start
  EXPECT_EQ(done_count, 1);            // only the second incarnation finishes
  EXPECT_EQ(last.degraded_blocks, 0u);
  EXPECT_EQ(last.grads.size(), grads.size());
  // Lossless link: any retransmission would have come from a stale
  // first-incarnation timer surviving the crash teardown.
  EXPECT_EQ(w.retransmissions(), 0u);
}

// --- Testbed kill / revive -------------------------------------------------

TEST(RouterKill, TestbedKillReviveConvergesBitIdentical) {
  auto run_once = [](const std::string& schedule_text,
                     std::uint64_t* retransmits) {
    trioml::TestbedConfig tc;
    tc.num_workers = 4;
    tc.grads_per_packet = 128;
    tc.slab_pool = 512;
    trioml::Testbed tb(tc);
    for (int i = 0; i < 4; ++i) {
      tb.worker(i).enable_hardened_retransmit(sim::Duration::millis(1),
                                              /*retry_budget=*/50,
                                              sim::Duration::millis(8));
    }
    FaultInjector injector(tb.simulator(), nullptr);
    injector.bind(tb);
    if (!schedule_text.empty()) {
      injector.arm(FaultSchedule::parse(schedule_text));
    }
    std::vector<trioml::AllreduceResult> results(4);
    int finished = 0;
    for (int i = 0; i < 4; ++i) {
      std::vector<std::uint32_t> grads(128 * 128, std::uint32_t(i + 1));
      tb.worker(i).start_allreduce(grads, /*gen_id=*/1,
                                   [&, i](trioml::AllreduceResult r) {
                                     results[std::size_t(i)] = std::move(r);
                                     ++finished;
                                   });
    }
    tb.simulator().run_until(sim::Time(sim::Duration::millis(60).ns()));
    EXPECT_EQ(finished, 4);
    if (retransmits != nullptr) {
      *retransmits = 0;
      for (int i = 0; i < 4; ++i) *retransmits += tb.worker(i).retransmissions();
    }
    std::uint64_t kill_drops = tb.router().kill_dropped_frames();
    if (!schedule_text.empty()) {
      EXPECT_EQ(tb.router().kills(), 1u);
      EXPECT_GT(kill_drops + injector.blocks_invalidated(), 0u);
    }
    return digest_results(results);
  };

  std::uint64_t baseline_rtx = 0, faulted_rtx = 0;
  const std::uint64_t clean = run_once("", &baseline_rtx);
  // leaf:0 is the testbed's one router; dead for 300us mid-allreduce.
  const std::uint64_t faulted = run_once(R"(
at 10us  kill leaf:0
at 310us revive leaf:0
)",
                                         &faulted_rtx);
  EXPECT_EQ(clean, faulted);  // bit-identical after recovery
  EXPECT_EQ(baseline_rtx, 0u);
  EXPECT_GT(faulted_rtx, 0u);
}

}  // namespace
