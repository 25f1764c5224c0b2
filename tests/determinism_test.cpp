// Determinism regression tests for the event core.
//
// The queue's contract (sim/event_queue.hpp): same-timestamp events fire
// in schedule order, cancellation is exact, and none of it depends on heap
// internals. These tests pin that contract down two ways: a scripted
// schedule/cancel/reschedule scenario whose (time, label) pop order is
// digested and compared against a golden constant (so an accidental
// tie-break change fails loudly, not just differently), and a seeded
// fig13-scale testbed run executed twice with identical event counts.
// The shard-invariance suite extends the same contract to the parallel
// engine (sim/shard.hpp): a cluster run — clean, lossy, chaos-injected or
// failover-scripted — must produce bit-identical results, event counts
// and fault-log digests at --shards 1, 2 and the maximum shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "sim/digest.hpp"
#include "sim/simulator.hpp"
#include "trioml/testbed.hpp"

namespace {

// A deterministic LCG so the scenario is identical on every platform.
struct Lcg {
  std::uint64_t s = 0x243f6a8885a308d3ull;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

/// Schedules batches of events crowded onto few distinct timestamps (maximal
/// tie-breaking), cancels every third, reschedules replacements at the *same*
/// instant, and lets callbacks cancel sibling events and schedule follow-ups
/// at their own firing time. Returns the sim::Digest of the (time, label)
/// pop sequence (little-endian u64 folds: platform-independent).
std::uint64_t run_scripted_scenario() {
  sim::Simulator sim;
  sim::Digest digest;
  std::uint64_t next_label = 0;
  Lcg rng;

  std::vector<sim::EventId> ids;
  ids.reserve(512);

  auto record = [&sim, &digest](std::uint64_t label) {
    digest.u64(static_cast<std::uint64_t>(sim.now().ns())).u64(label);
  };

  for (int round = 0; round < 8; ++round) {
    ids.clear();
    // 64 events on just 4 distinct timestamps.
    for (int i = 0; i < 64; ++i) {
      const sim::Duration delay(static_cast<std::int64_t>(rng.next() % 4));
      const std::uint64_t label = next_label++;
      ids.push_back(sim.schedule_in(delay, [&record, &sim, &next_label,
                                            label] {
        record(label);
        // Every fourth firing schedules a follow-up at its own instant:
        // it must run after everything already queued for this instant.
        if (label % 4 == 0) {
          const std::uint64_t follow = next_label++;
          sim.schedule_in(sim::Duration(0),
                          [&record, follow] { record(follow); });
        }
      }));
    }
    // Cancel every third event; reschedule a replacement at the same time
    // bucket so the replacement's (later) sequence number decides order.
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      if (sim.cancel(ids[i])) {
        const std::uint64_t label = next_label++;
        sim.schedule_in(sim::Duration(static_cast<std::int64_t>(i % 4)),
                        [&record, label] { record(label); });
      }
    }
    // Double-cancel is a no-op and must not perturb anything.
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      EXPECT_FALSE(sim.cancel(ids[i]));
    }
    sim.run();
  }
  return digest.value();
}

TEST(Determinism, ScriptedPopOrderMatchesGolden) {
  const std::uint64_t first = run_scripted_scenario();
  const std::uint64_t second = run_scripted_scenario();
  EXPECT_EQ(first, second);
  // Golden digest of the (time, label) pop order, cancel/reschedule
  // interleavings included. A change here means the FIFO tie-break or
  // cancellation semantics changed — that breaks reproducibility of every
  // seeded experiment, so it must be deliberate.
  EXPECT_EQ(first, 0x4cbd84abfd1e9b15ull);
}

TEST(Determinism, Fig13ScaleRunIsExactlyRepeatable) {
  // A fig13-style aggregation scenario: 4 workers, packet-level, injected
  // loss (seeded), retransmit timers arming and cancelling constantly.
  auto run_once = [](std::uint64_t& events, std::int64_t& final_ns) {
    trioml::TestbedConfig cfg;
    cfg.num_workers = 4;
    cfg.grads_per_packet = 256;
    cfg.window = 16;
    trioml::Testbed tb(cfg);
    for (int w = 0; w < 4; ++w) {
      // Loss on the uplink only: a lost *request* is recovered by the
      // worker's retransmit timer; a lost *reply* would need the age-out
      // sweep, which this test leaves off to keep the run bounded.
      tb.link(w).a_to_b().set_loss(0.01, 7 + static_cast<std::uint64_t>(w));
      tb.worker(w).enable_retransmit(sim::Duration::micros(200));
    }
    int done = 0;
    for (int w = 0; w < 4; ++w) {
      std::vector<std::uint32_t> g(256 * 50, 1);
      tb.worker(w).start_allreduce(std::move(g), 1,
                                   [&](trioml::AllreduceResult) { ++done; });
    }
    tb.simulator().run();
    EXPECT_EQ(done, 4);
    events = tb.simulator().events_executed();
    final_ns = tb.simulator().now().ns();
  };
  std::uint64_t events_a = 0, events_b = 0;
  std::int64_t ns_a = 0, ns_b = 0;
  run_once(events_a, ns_a);
  run_once(events_b, ns_b);
  EXPECT_GT(events_a, 0u);
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(ns_a, ns_b);
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the parallel engine's determinism contract.

/// Every worker's result gradient bits plus the completion count,
/// last-arrival time and final engine clock.
std::uint64_t run_digest(const cluster::AllreduceRun& run, sim::Time now) {
  sim::Digest d;
  d.u64(std::uint64_t(run.finished))
      .u64(std::uint64_t(run.finish.ns()))
      .u64(std::uint64_t(now.ns()));
  for (const trioml::AllreduceResult& r : run.results) {
    d.u64(r.grads.size()).u64(r.degraded_blocks);
    for (float g : r.grads) {
      std::uint32_t bits;
      std::memcpy(&bits, &g, sizeof bits);
      d.u64(bits);
    }
  }
  return d.value();
}

struct ShardOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t fault_digest = 0;
  int shards = 0;
};

/// The shard counts every invariance scenario runs at: serial, two-way,
/// and one shard per router (the maximum the engine allows).
std::vector<int> shard_counts(int routers) { return {1, 2, routers}; }

void expect_invariant(const std::vector<ShardOutcome>& outcomes) {
  ASSERT_GE(outcomes.size(), 2u);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].digest, outcomes[0].digest)
        << "result digest diverges at " << outcomes[i].shards
        << " shards";
    EXPECT_EQ(outcomes[i].events, outcomes[0].events)
        << "event count diverges at " << outcomes[i].shards
        << " shards";
    EXPECT_EQ(outcomes[i].fault_digest, outcomes[0].fault_digest)
        << "fault log diverges at " << outcomes[i].shards
        << " shards";
  }
}

TEST(ShardInvariance, CleanAllreduceIsShardCountInvariant) {
  // 4 racks x 2 workers: 5 router domains. The fabric latency is the
  // engine lookahead; 2 us is the fig17 configuration.
  std::vector<ShardOutcome> outcomes;
  for (const int shards : shard_counts(/*routers=*/5)) {
    cluster::ClusterSpec spec;
    spec.racks = 4;
    spec.workers_per_rack = 2;
    spec.grads_per_packet = 128;
    spec.slab_pool = 1024;
    spec.fabric_link.latency = sim::Duration::micros(2);
    spec.shards = shards;
    cluster::Cluster cl(spec);
    EXPECT_EQ(cl.num_shards(), std::min(shards, 5));
    const auto grads = cluster::patterned_gradients(8, 128 * 8);
    const auto run = cluster::run_allreduce(cl, grads);
    EXPECT_EQ(run.finished, 8);
    EXPECT_TRUE(
        cluster::bit_identical(run.results, cluster::testbed_baseline(spec, grads)));
    outcomes.push_back({run_digest(run, cl.engine().now()),
                        cl.engine().events_executed(), 0, cl.num_shards()});
  }
  expect_invariant(outcomes);
}

TEST(ShardInvariance, LossyAllreduceIsShardCountInvariant) {
  // The fig13-style lossy regime: seeded i.i.d. drops on the host links
  // and on the fabric uplinks, recovered by worker retransmission. Loss
  // decisions are made sender-side from per-direction seeded RNGs, so
  // they are part of the simulation, not of the shard packing.
  std::vector<ShardOutcome> outcomes;
  for (const int shards : shard_counts(/*routers=*/5)) {
    cluster::ClusterSpec spec;
    spec.racks = 4;
    spec.workers_per_rack = 2;
    spec.grads_per_packet = 128;
    spec.slab_pool = 1024;
    spec.host_link.loss = 0.01;
    spec.fabric_link.latency = sim::Duration::micros(2);
    spec.shards = shards;
    cluster::Cluster cl(spec);
    for (int r = 0; r < spec.racks; ++r) {
      cl.fabric_link(r).a_to_b().set_loss(0.05, 91 + std::uint64_t(r));
    }
    for (int w = 0; w < 8; ++w) {
      cl.worker(w).enable_retransmit(sim::Duration::micros(200));
    }
    const auto grads = cluster::patterned_gradients(8, 128 * 8);
    const auto run = cluster::run_allreduce(
        cl, grads, /*gen_id=*/1, sim::Time(sim::Duration::millis(100).ns()));
    EXPECT_EQ(run.finished, 8);
    outcomes.push_back({run_digest(run, cl.engine().now()),
                        cl.engine().events_executed(), 0, cl.num_shards()});
  }
  expect_invariant(outcomes);
  EXPECT_GT(outcomes[0].events, 0u);
}

TEST(ShardInvariance, ChaosReplayIsShardCountInvariant) {
  // A chaos schedule exercising every windowed-fault recovery path: the
  // injector runs each fault as a global action with all shards parked,
  // so the fault log digest — the replay fingerprint — must match the
  // serial engine's exactly. Tracing is on, and runs at every shard
  // count: the exported trace must be the same file too.
  const faults::FaultSchedule schedule = faults::FaultSchedule::parse(R"(
    at 50us  flap fabric:0 for 40us
    at 30us  burst host:* p_enter=0.02 p_exit=0.3 for 100us
    at 80us  loss fabric:1 0.05 for 60us
    at 60us  crash worker:3
    at 220us restart worker:3
    at 120us drop-buckets spine job=1
  )");
  std::vector<ShardOutcome> outcomes;
  std::vector<std::string> traces;
  for (const int shards : shard_counts(/*routers=*/3)) {
    telemetry::Telemetry telem(/*metrics=*/true, /*trace=*/true);
    cluster::ClusterSpec spec;
    spec.racks = 2;
    spec.workers_per_rack = 2;
    spec.grads_per_packet = 128;
    spec.slab_pool = 1024;
    spec.fabric_link.latency = sim::Duration::micros(2);
    spec.shards = shards;
    spec.telemetry = &telem;
    cluster::Cluster cl(spec);
    EXPECT_EQ(cl.num_shards(), shards);
    faults::FaultInjector injector(cl);
    injector.arm(schedule);
    for (int w = 0; w < 4; ++w) {
      cl.worker(w).enable_hardened_retransmit(sim::Duration::millis(5),
                                              /*retry_budget=*/10,
                                              sim::Duration::millis(20));
    }
    cl.start_straggler_detection(/*threads=*/10, sim::Duration::millis(1));
    const auto grads = cluster::patterned_gradients(4, 128 * 8);
    const auto run = cluster::run_allreduce(
        cl, grads, /*gen_id=*/1, sim::Time(sim::Duration::millis(60).ns()));
    cl.stop_straggler_detection();
    EXPECT_GT(injector.faults_injected(), 0u);
    outcomes.push_back({run_digest(run, cl.engine().now()),
                        cl.engine().events_executed(), injector.digest(),
                        cl.num_shards()});
    std::ostringstream trace;
    telem.tracer.write_json(trace);
    traces.push_back(trace.str());
  }
  expect_invariant(outcomes);
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_TRUE(traces[i] == traces[0])
        << "trace diverges at " << outcomes[i].shards << " shards";
  }
}

TEST(ShardInvariance, ScriptedFailoverIsShardCountInvariant) {
  // Spine power loss at 100 us, scripted failover to the standby spine at
  // 160 us — the control plane as two global actions (the heartbeat-driven
  // RecoveryManager fails over from its phi check, also a global action;
  // docs/recovery.md "At any shard count").
  std::vector<ShardOutcome> outcomes;
  for (const int shards : shard_counts(/*routers=*/4)) {
    cluster::ClusterSpec spec;
    spec.racks = 2;
    spec.workers_per_rack = 4;
    spec.grads_per_packet = 128;
    spec.slab_pool = 1024;
    spec.backup_spine = true;
    spec.host_link.gbps = 10.0;  // stretch the epoch across the kill
    spec.fabric_link.latency = sim::Duration::micros(2);
    spec.shards = shards;
    cluster::Cluster cl(spec);
    for (int w = 0; w < 8; ++w) {
      cl.worker(w).enable_hardened_retransmit(sim::Duration::millis(1),
                                              /*retry_budget=*/50,
                                              sim::Duration::millis(8));
    }
    faults::FaultInjector injector(cl);
    faults::FaultSchedule schedule;
    schedule.kill(sim::Time() + sim::Duration::micros(100),
                  faults::FaultSchedule::spine_router());
    injector.arm(schedule);
    cl.engine().schedule_global(
        sim::Time() + sim::Duration::micros(160), [&cl] {
          cl.spine_app().invalidate_active_blocks();
          cl.fail_over_to_backup();
        });
    const auto grads = cluster::patterned_gradients(8, 128 * 8);
    const auto run = cluster::run_allreduce(
        cl, grads, /*gen_id=*/1, sim::Time(sim::Duration::millis(100).ns()));
    EXPECT_EQ(run.finished, 8);
    EXPECT_TRUE(cl.on_backup_spine());
    outcomes.push_back({run_digest(run, cl.engine().now()),
                        cl.engine().events_executed(), injector.digest(),
                        cl.num_shards()});
  }
  expect_invariant(outcomes);
}

}  // namespace
