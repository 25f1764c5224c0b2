// Fault-injection subsystem (src/faults/, docs/faults.md).
//
// Covers the DSL parser, golden deterministic replay (same schedule +
// same seeds => bit-identical allreduce results and equal fault-log
// digests), host-crash recovery with excluded-worker semantics on an
// 8-worker cluster, burst loss exercising the hardened retransmit path
// (retry budgets + backoff counters visible in the metrics registry),
// and aggregation-bucket state loss recovered by retransmission.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "sim/digest.hpp"

namespace {

using namespace faults;

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

TEST(FaultSchedule, ParsesTheDslGrammar) {
  const FaultSchedule s = FaultSchedule::parse(R"(
# full grammar tour
at 10ms flap host:3 for 2ms
at 0ms  burst host:* p_enter=0.02 p_exit=0.3 for 5ms
at 1ms  loss fabric:0 0.05 for 3ms
at 2ms  corrupt host:1.up 0.01
at 4ms  stall leaf:0 for 500us
at 3ms  crash worker:5
at 6ms  restart worker:5
at 5ms  drop-buckets spine job=2
at 7ms  down fabric:1.down
at 8ms  up fabric:1.down
)");
  ASSERT_EQ(s.size(), 10u);
  const auto& e = s.events();
  EXPECT_EQ(e[0].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(e[0].target.kind, TargetKind::kHostLink);
  EXPECT_EQ(e[0].target.index, 3);
  EXPECT_EQ(e[0].at.ns(), sim::Duration::millis(10).ns());
  EXPECT_EQ(e[0].duration.ns(), sim::Duration::millis(2).ns());
  EXPECT_EQ(e[1].target.index, Target::kAll);
  EXPECT_DOUBLE_EQ(e[1].burst.p_enter, 0.02);
  EXPECT_DOUBLE_EQ(e[1].burst.p_exit, 0.3);
  EXPECT_EQ(e[2].kind, FaultKind::kIidLoss);
  EXPECT_DOUBLE_EQ(e[2].probability, 0.05);
  EXPECT_EQ(e[3].kind, FaultKind::kCorrupt);
  EXPECT_EQ(e[3].target.dir, LinkDir::kUp);
  EXPECT_EQ(e[3].duration.ns(), 0);  // no window = permanent
  EXPECT_EQ(e[4].kind, FaultKind::kRouterStall);
  EXPECT_EQ(e[4].target.kind, TargetKind::kLeafRouter);
  EXPECT_EQ(e[5].kind, FaultKind::kHostCrash);
  EXPECT_EQ(e[6].kind, FaultKind::kHostRestart);
  EXPECT_EQ(e[7].kind, FaultKind::kBucketDrop);
  EXPECT_EQ(e[7].target.kind, TargetKind::kSpineAgg);
  EXPECT_EQ(e[7].job_id, 2);
  EXPECT_EQ(e[8].kind, FaultKind::kLinkDown);
  EXPECT_EQ(e[8].target.dir, LinkDir::kDown);
  EXPECT_EQ(e[9].kind, FaultKind::kLinkUp);
}

TEST(FaultSchedule, RejectsMalformedLines) {
  EXPECT_THROW(FaultSchedule::parse("at 1ms flap host:0"),
               std::invalid_argument);  // flap needs `for`
  EXPECT_THROW(FaultSchedule::parse("at 1ms crash host:0"),
               std::invalid_argument);  // crash needs a worker
  EXPECT_THROW(FaultSchedule::parse("at 1ms burst worker:0"),
               std::invalid_argument);  // burst needs a link
  EXPECT_THROW(FaultSchedule::parse("flap host:0 for 1ms"),
               std::invalid_argument);  // missing `at <time>`
  EXPECT_THROW(FaultSchedule::parse("at 1parsec flap host:0 for 1ms"),
               std::invalid_argument);  // bad unit
  EXPECT_THROW(FaultSchedule::parse("at 1ms wobble host:0"),
               std::invalid_argument);  // unknown verb
}

// Parses `text`, expecting std::invalid_argument naming `where`.
void expect_rejected(const std::string& text, const std::string& where) {
  try {
    FaultSchedule::parse(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

TEST(FaultSchedule, RejectsOutOfRangeNumbersAtTheirLineAndColumn) {
  // Each of these once parsed: to a wildcard or wrapped target index, a
  // truncated job or tenant, a wrapped seed, an impossible probability, a
  // negative time or a window whose end overflows.
  const std::pair<const char*, int> cases[] = {
      {"at 1ms kill leaf:4294967295", 18},
      {"at 1ms kill leaf:4294967296", 18},
      {"at 1ms drop-buckets spine job=300", 31},
      {"at 1ms drop-buckets spine job=-3", 31},
      {"at 1ms loss host:0 0.1 seed=-1", 29},
      {"at 1ms loss host:0 0.1 seed=2.5", 29},
      {"at 1ms crash worker:0 tenant=2.5", 30},
      {"at 1ms loss host:0 1.5", 20},
      {"at 1ms loss host:0 nan", 20},
      {"at 1ms burst host:0 p_enter=7", 29},
      {"at 99999999999s kill spine", 4},
      {"at 1e400ms kill spine", 4},
      {"at nanms kill spine", 4},
      {"at 5000000000s flap host:0 for 5000000000s", 32},
  };
  for (const auto& [line, col] : cases) {
    expect_rejected(std::string("# comment\n") + line,
                    "faults DSL line 2 col " + std::to_string(col) + ":");
  }
}

TEST(FaultSchedule, SeedRoundTripsAllSixtyFourBits) {
  constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15;
  FaultSchedule s;
  s.iid_loss(sim::Time() + sim::Duration::micros(5),
             FaultSchedule::host_link(1), 0.25, sim::Duration::millis(1),
             kSeed);
  const FaultSchedule back = FaultSchedule::parse(s.to_dsl());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.events()[0].seed, kSeed);
}

TEST(FaultSchedule, ParsesKillAndRevive) {
  const FaultSchedule s = FaultSchedule::parse(R"(
at 3ms kill spine
at 1ms kill leaf:1
at 6ms revive spine
)");
  ASSERT_EQ(s.size(), 3u);
  const auto& e = s.events();
  EXPECT_EQ(e[0].kind, FaultKind::kRouterKill);
  EXPECT_EQ(e[0].target.kind, TargetKind::kSpineRouter);
  EXPECT_EQ(e[0].at.ns(), sim::Duration::millis(3).ns());
  EXPECT_EQ(e[0].duration.ns(), 0);  // kill is permanent, never windowed
  EXPECT_EQ(e[1].kind, FaultKind::kRouterKill);
  EXPECT_EQ(e[1].target.kind, TargetKind::kLeafRouter);
  EXPECT_EQ(e[1].target.index, 1);
  EXPECT_EQ(e[2].kind, FaultKind::kRouterRevive);
  EXPECT_EQ(e[2].target.kind, TargetKind::kSpineRouter);
}

TEST(FaultSchedule, RejectsMalformedKillAndRevive) {
  EXPECT_THROW(FaultSchedule::parse("at 1ms kill spine for 2ms"),
               std::invalid_argument);  // kill is permanent; revive instead
  EXPECT_THROW(FaultSchedule::parse("at 1ms kill host:0"),
               std::invalid_argument);  // kill needs a router
  EXPECT_THROW(FaultSchedule::parse("at 1ms revive worker:0"),
               std::invalid_argument);  // revive needs a router
  EXPECT_THROW(FaultSchedule::parse("at 1ms kill"),
               std::invalid_argument);  // missing target
}

TEST(FaultInjector, RejectsOutOfRangeTargetsAtArmTime) {
  cluster::ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 256;
  cluster::Cluster cl(spec);
  FaultInjector injector(cl);
  // One target per kind, each one past the end of the 2x2 cluster.
  for (const char* bad : {"at 0us flap host:4 for 10us", "at 0us down fabric:2",
                          "at 0us stall leaf:2 for 10us",
                          "at 0us drop-buckets leaf:2",
                          "at 0us crash worker:99"}) {
    EXPECT_THROW(injector.arm(FaultSchedule::parse(bad)), std::out_of_range)
        << bad;
  }
  // A wildcard and the spine are always in range.
  EXPECT_NO_THROW(
      injector.arm(FaultSchedule::parse("at 0us loss host:* 0.01 for 10us")));
  EXPECT_NO_THROW(
      injector.arm(FaultSchedule::parse("at 0us stall spine for 10us")));
}

struct ChaosRun {
  std::uint64_t result_digest = 0;
  std::uint64_t fault_digest = 0;
  int finished = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t backoff_rearms = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t buckets_dropped = 0;
  std::vector<trioml::AllreduceResult> results;
};

/// Called at the end of a chaos run with the cluster, its injector and the
/// registry they counted into.
using ChaosInspector = std::function<void(
    cluster::Cluster&, const FaultInjector&, const telemetry::Registry&)>;

// The acceptance scenario: burst loss on every host link + a trunk flap
// + one host crash mid-allreduce, on an 8-worker 2-rack cluster with the
// hardened recovery path enabled.
ChaosRun run_chaos(const FaultSchedule& schedule,
                   const ChaosInspector& inspect = {}) {
  cluster::ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 512;
  telemetry::Telemetry telem(/*metrics_on=*/true, /*trace_on=*/false);
  spec.telemetry = &telem;
  cluster::Cluster cl(spec);
  for (int w = 0; w < 8; ++w) {
    cl.worker(w).enable_hardened_retransmit(sim::Duration::millis(5),
                                            /*retry_budget=*/10,
                                            sim::Duration::millis(20));
  }
  cl.start_straggler_detection(/*threads=*/10, sim::Duration::millis(1));

  FaultInjector injector(cl);
  injector.arm(schedule);

  const auto grads = cluster::patterned_gradients(8, 128 * 32);
  const auto run = cluster::run_allreduce(
      cl, grads, /*gen_id=*/1, sim::Time(sim::Duration::millis(150).ns()));
  cl.stop_straggler_detection();

  ChaosRun out;
  out.results = run.results;
  out.result_digest = digest_results(run.results);
  out.fault_digest = injector.digest();
  out.finished = run.finished;
  out.buckets_dropped = injector.buckets_dropped();
  for (int w = 0; w < 8; ++w) {
    out.retransmits += cl.worker(w).retransmissions();
    out.backoff_rearms += cl.worker(w).backoff_rearms();
    out.budget_exhausted += cl.worker(w).retry_budget_exhausted();
  }
  if (inspect) inspect(cl, injector, telem.metrics);
  return out;
}

FaultSchedule acceptance_schedule() {
  net::GilbertElliott ge;
  ge.p_enter = 0.02;
  ge.p_exit = 0.2;
  FaultSchedule s;
  s.burst_loss(sim::Time(), FaultSchedule::host_link(Target::kAll), ge,
               sim::Duration::millis(2));
  s.flap(sim::Time() + sim::Duration::micros(30),
         FaultSchedule::fabric_link(0), sim::Duration::micros(200));
  s.crash(sim::Time() + sim::Duration::micros(50), /*worker=*/5);
  return s;
}

// Golden deterministic replay: two runs of the same schedule produce
// bit-identical surviving results and equal fault-log digests.
TEST(FaultInjector, GoldenDeterministicReplay) {
  const ChaosRun a = run_chaos(acceptance_schedule());
  const ChaosRun b = run_chaos(acceptance_schedule());
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.result_digest, b.result_digest);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.backoff_rearms, b.backoff_rearms);
}

// Host-crash recovery: the crashed worker is excluded, every survivor
// converges, and survivors see degraded (rescaled) blocks where worker
// 5's contribution aged out.
TEST(FaultInjector, HostCrashExcludesWorkerAndSurvivorsConverge) {
  const ChaosRun run = run_chaos(acceptance_schedule());
  EXPECT_EQ(run.finished, 7);
  // Worker 5 (rack 1, local 1) never completes: its result slot is empty.
  EXPECT_TRUE(run.results[5].grads.empty() ||
              run.results[5].finish.ns() == 0);
  std::uint64_t degraded = 0;
  for (int w = 0; w < 8; ++w) {
    if (w == 5) continue;
    EXPECT_FALSE(run.results[std::size_t(w)].grads.empty()) << "worker " << w;
    degraded += run.results[std::size_t(w)].degraded_blocks;
  }
  // The crash makes rack 1's blocks complete only via straggler aging.
  EXPECT_GT(degraded, 0u);
}

// Burst loss drives the hardened retransmit path; the recovery counters
// must appear in the metrics registry with the observed values, and every
// registry total must equal the sum of its components' accessors.
TEST(FaultInjector, BurstLossCountersVisibleInTheRegistry) {
  const auto inspect = [](cluster::Cluster& cl, const FaultInjector& injector,
                          const telemetry::Registry& m) {
    std::vector<std::pair<std::string, std::uint64_t>> totals;
    // Host-link tier: one shared cell per direction and count.
    using Count = std::uint64_t (net::LinkEndpoint::*)() const;
    const std::pair<const char*, Count> link_counts[] = {
        {"tx_frames", &net::LinkEndpoint::frames_sent},
        {"tx_bytes", &net::LinkEndpoint::bytes_sent},
        {"rx_frames", &net::LinkEndpoint::frames_delivered},
        {"drops", &net::LinkEndpoint::frames_dropped},
        {"fault.down_drops", &net::LinkEndpoint::down_drops},
        {"fault.burst_drops", &net::LinkEndpoint::burst_drops},
        {"fault.corrupt_frames", &net::LinkEndpoint::frames_corrupted},
    };
    for (const auto& [name, count] : link_counts) {
      std::uint64_t up = 0, down = 0;
      for (int w = 0; w < cl.num_workers(); ++w) {
        up += (cl.link(w).a_to_b().*count)();
        down += (cl.link(w).b_to_a().*count)();
      }
      totals.emplace_back(std::string("cluster.tier.host.up.") + name, up);
      totals.emplace_back(std::string("cluster.tier.host.down.") + name, down);
    }
    // Worker tier: the recovery-path counts.
    using WorkerCount = std::uint64_t (trioml::TrioMlWorker::*)() const;
    const std::pair<const char*, WorkerCount> worker_counts[] = {
        {"retransmits", &trioml::TrioMlWorker::retransmissions},
        {"backoff_rearms", &trioml::TrioMlWorker::backoff_rearms},
        {"retry_budget_exhausted",
         &trioml::TrioMlWorker::retry_budget_exhausted},
        {"crashes", &trioml::TrioMlWorker::crashes},
    };
    for (const auto& [name, count] : worker_counts) {
      std::uint64_t n = 0;
      for (int w = 0; w < cl.num_workers(); ++w) n += (cl.worker(w).*count)();
      totals.emplace_back(std::string("cluster.worker.") + name, n);
    }
    totals.emplace_back("faults.injected", injector.faults_injected());
    totals.emplace_back("faults.recovered", injector.recoveries());
    totals.emplace_back("faults.buckets_dropped", injector.buckets_dropped());
    totals.emplace_back("faults.blocks_invalidated",
                        injector.blocks_invalidated());
    for (const auto& [name, accessors] : totals) {
      EXPECT_EQ(m.counter_value(name), accessors) << name;
    }

    EXPECT_GT(m.counter_value("cluster.worker.retransmits"), 0u);
    EXPECT_GT(m.counter_value("cluster.worker.backoff_rearms"), 0u);
    EXPECT_EQ(m.counter_value("cluster.worker.crashes"), 1u);
    EXPECT_EQ(m.counter_value("faults.injected"), 10u);
    EXPECT_EQ(m.counter_value("faults.recovered"), 9u);
    // The burst windows really dropped frames, visible per tier.
    EXPECT_GT(m.counter_value("cluster.tier.host.up.fault.burst_drops") +
                  m.counter_value("cluster.tier.host.down.fault.burst_drops"),
              0u);
  };
  const ChaosRun run = run_chaos(acceptance_schedule(), inspect);
  EXPECT_GT(run.retransmits, 0u);
  EXPECT_GT(run.backoff_rearms, 0u);
}

// Aggregation-bucket state loss: while rack 0's trunk is flapped down,
// the spine's blocks sit waiting for rack 0's partials — dropping them
// then loses rack 1's absorbed contributions. Worker retransmits
// re-create the buckets from scratch and the allreduce still converges
// for everyone. A router stall rides along to cover held-and-replayed
// ingress.
TEST(FaultInjector, BucketDropRecoversThroughRetransmission) {
  FaultSchedule s;
  s.flap(sim::Time() + sim::Duration::micros(5),
         FaultSchedule::fabric_link(0), sim::Duration::micros(300));
  s.drop_buckets(sim::Time() + sim::Duration::micros(100),
                 FaultSchedule::spine_agg(), /*job_id=*/1);
  s.stall(sim::Time() + sim::Duration::micros(120),
          FaultSchedule::leaf_router(1), sim::Duration::micros(50));
  const ChaosRun run = run_chaos(s);
  EXPECT_EQ(run.finished, 8);
  EXPECT_GT(run.buckets_dropped, 0u);
  for (const auto& r : run.results) EXPECT_FALSE(r.grads.empty());
}

}  // namespace
