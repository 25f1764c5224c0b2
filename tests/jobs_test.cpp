// Multi-tenant job subsystem acceptance (docs/jobs.md): the jobs DSL,
// admission-time SMS quotas, hash-partition isolation, weighted fairness
// under an aggressor, bit-identity of every tenant's result versus its
// solo run, tenant-scoped faults and teardown, and spine failover with
// three live tenants.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/tenant.hpp"
#include "recovery/recovery.hpp"
#include "trio/hash_table.hpp"

namespace {

using cluster::Cluster;
using cluster::ClusterSpec;

sim::Time at_us(std::int64_t v) {
  return sim::Time(sim::Duration::micros(v).ns());
}

ClusterSpec small_spec(bool backup = false) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 1024;
  spec.backup_spine = backup;
  return spec;
}

jobs::TenantSpec allreduce_tenant(std::uint8_t id, std::uint32_t weight = 1) {
  jobs::TenantSpec t;
  t.id = id;
  t.kind = jobs::TenantKind::kAllreduce;
  t.weight = weight;
  t.grads = 128 * 32;  // 32 blocks per worker
  t.window = 64;
  t.block_cnt_max = 256;
  return t;
}

jobs::TenantSpec aggressor_tenant(std::uint8_t id, double load) {
  jobs::TenantSpec t;
  t.id = id;
  t.kind = jobs::TenantKind::kBestEffort;
  t.weight = 1;
  t.load = load;
  return t;
}

/// The tenant's run on an otherwise idle cluster — the solo baseline.
jobs::MultiTenantRun run_solo(const jobs::TenantSpec& tenant) {
  ClusterSpec spec = small_spec();
  Cluster cl(spec);
  jobs::JobManager mgr(cl);
  EXPECT_TRUE(mgr.admit(tenant).admitted);
  return mgr.run(/*gen_id=*/1, at_us(50'000));
}

double tenant_p99_us(jobs::JobManager& mgr, jobs::TenantId id, int workers) {
  sim::Samples all;
  for (int w = 0; w < workers; ++w) {
    for (double v : mgr.tenant_worker(id, w)->block_latency_us().values()) {
      all.add(v);
    }
  }
  return all.percentile(99);
}

// --- Jobs DSL ---------------------------------------------------------------

TEST(JobsDsl, ParsesTenantsAndDefaults) {
  const auto spec = jobs::JobsSpec::parse(
      "# victim and an aggressor\n"
      "tenant 1 allreduce weight=4 grads=8192 window=32 blocks=128 sms=96M\n"
      "\n"
      "tenant 3 besteffort load=0.9   # noisy neighbour\n");
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_EQ(spec.tenants[0].id, 1);
  EXPECT_EQ(spec.tenants[0].kind, jobs::TenantKind::kAllreduce);
  EXPECT_EQ(spec.tenants[0].weight, 4u);
  EXPECT_EQ(spec.tenants[0].grads, 8192u);
  EXPECT_EQ(spec.tenants[0].window, 32u);
  EXPECT_EQ(spec.tenants[0].block_cnt_max, 128);
  EXPECT_EQ(spec.tenants[0].sms_quota_bytes, 96ull << 20);
  EXPECT_EQ(spec.tenants[1].id, 3);
  EXPECT_EQ(spec.tenants[1].kind, jobs::TenantKind::kBestEffort);
  EXPECT_DOUBLE_EQ(spec.tenants[1].load, 0.9);
  EXPECT_EQ(spec.tenants[1].sms_quota_bytes, 0u);  // unlimited
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    jobs::JobsSpec::parse(text);
    FAIL() << "expected a parse error containing \"" << needle << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(JobsDsl, RejectsMalformedWithLineAndColumn) {
  // Same line/column error style as the faults DSL.
  expect_parse_error("job 1 allreduce\n", "jobs DSL line 1 col 1");
  expect_parse_error("tenant 1 allreduce\ntenant 2 bulk\n",
                     "jobs DSL line 2 col 10");
  expect_parse_error("tenant 0 allreduce\n", "tenant id must be in 1..255");
  expect_parse_error("tenant 1 allreduce\ntenant 1 besteffort\n",
                     "duplicate tenant id 1");
  expect_parse_error("tenant 1 allreduce speed=9\n", "unknown key \"speed\"");
  expect_parse_error("tenant 1 besteffort load=1.5\n",
                     "load must be in (0, 1]");
  expect_parse_error("tenant 1 allreduce sms=banana\n", "col 24");
}

// --- Admission --------------------------------------------------------------

TEST(Admission, RejectsOverQuotaAtAdmissionTimeNotMidRun) {
  ClusterSpec spec = small_spec();
  Cluster cl(spec);
  jobs::JobManager mgr(cl);

  // 256 blocks * (64 B record + 4 KiB buffer) per PFE never fits in 512K.
  jobs::TenantSpec greedy = allreduce_tenant(2);
  greedy.sms_quota_bytes = 512 << 10;
  const auto rejected = mgr.admit(greedy);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_NE(rejected.reason.find("exceeds SMS quota"), std::string::npos);
  // The cluster is untouched: no job record anywhere, nothing charged.
  for (auto* app : cl.apps()) EXPECT_FALSE(app->has_job(2));
  EXPECT_EQ(cl.leaf(0).pfe(0).sms().tenant_bytes_used(2), 0u);
  EXPECT_TRUE(mgr.admitted().empty());

  // With a sufficient quota the same tenant admits, its worst case is
  // reserved up front, and the run completes without ever hitting the
  // quota mid-flight.
  jobs::TenantSpec fits = greedy;
  fits.sms_quota_bytes = 2ull << 20;
  ASSERT_TRUE(mgr.admit(fits).admitted);
  const auto used = cl.leaf(0).pfe(0).sms().tenant_bytes_used(2);
  EXPECT_GT(used, 0u);
  EXPECT_LE(used, fits.sms_quota_bytes);
  const auto run = mgr.run(1, at_us(50'000));
  ASSERT_NE(run.tenant(2), nullptr);
  EXPECT_EQ(run.tenant(2)->finished, cl.num_workers());
}

TEST(Admission, RejectsDuplicateAndReservedIds) {
  Cluster cl(small_spec());
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(2)).admitted);
  EXPECT_FALSE(mgr.admit(allreduce_tenant(2)).admitted);
  jobs::TenantSpec zero = allreduce_tenant(2);
  zero.id = 0;
  EXPECT_FALSE(mgr.admit(zero).admitted);
}

TEST(Admission, RejectsMultiShardCluster) {
  // run()'s completion callbacks share state across tenants, so a
  // cluster split over shard threads is refused up front.
  ClusterSpec spec = small_spec();
  spec.shards = 2;
  Cluster cl(spec);
  ASSERT_EQ(cl.num_shards(), 2);
  EXPECT_THROW(jobs::JobManager mgr(cl), std::logic_error);
}

// --- Hash-partition isolation ----------------------------------------------

TEST(Isolation, HashPartitionsAreDisjointPerTenant) {
  Cluster cl(small_spec());
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(2)).admitted);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(3)).admitted);
  mgr.enable_isolation(/*partitions=*/8);

  auto& table = cl.leaf(0).pfe(0).hash_table();
  const auto [lo2, hi2] = table.partition_range(2);
  const auto [lo3, hi3] = table.partition_range(3);
  EXPECT_TRUE(hi2 <= lo3 || hi3 <= lo2) << "tenant slices overlap";

  // Every key a tenant can emit (its job id rides the top byte) lands in
  // its own slice, no matter the block id.
  for (std::uint64_t block = 0; block < 4096; block += 97) {
    const std::uint64_t key2 = (2ull << 48) | (1ull << 32) | block;
    const std::uint64_t key3 = (3ull << 48) | (1ull << 32) | block;
    const auto b2 = table.bucket_index(key2);
    const auto b3 = table.bucket_index(key3);
    EXPECT_GE(b2, lo2);
    EXPECT_LT(b2, hi2);
    EXPECT_GE(b3, lo3);
    EXPECT_LT(b3, hi3);
  }
}

// --- Fairness under an aggressor -------------------------------------------

TEST(Isolation, VictimP99BoundedUnderAggressor) {
  const jobs::TenantSpec victim = allreduce_tenant(2, /*weight=*/4);

  // Solo baseline.
  double solo_p99 = 0;
  {
    ClusterSpec spec = small_spec();
    Cluster cl(spec);
    jobs::JobManager mgr(cl);
    ASSERT_TRUE(mgr.admit(victim).admitted);
    const auto run = mgr.run(1, at_us(50'000));
    ASSERT_EQ(run.tenant(2)->finished, cl.num_workers());
    solo_p99 = tenant_p99_us(mgr, 2, cl.num_workers());
    ASSERT_GT(solo_p99, 0.0);
  }

  // Same victim beside a 90%-load aggressor, isolation on: MQSS weighted
  // queueing must keep the victim's p99 within 2x of its solo run.
  ClusterSpec spec = small_spec();
  Cluster cl(spec);
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(victim).admitted);
  ASSERT_TRUE(mgr.admit(aggressor_tenant(3, 0.9)).admitted);
  mgr.enable_isolation();
  const auto run = mgr.run(1, at_us(50'000));
  ASSERT_EQ(run.tenant(2)->finished, cl.num_workers());
  const double noisy_p99 = tenant_p99_us(mgr, 2, cl.num_workers());
  EXPECT_LE(noisy_p99, 2.0 * solo_p99)
      << "victim p99 " << noisy_p99 << "us vs solo " << solo_p99 << "us";
}

// --- Bit-identity versus solo runs -----------------------------------------

TEST(MultiTenant, EachTenantBitIdenticalToItsSoloRun) {
  const auto solo2 = run_solo(allreduce_tenant(2));
  const auto solo3 = run_solo(allreduce_tenant(3));

  Cluster cl(small_spec());
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(2)).admitted);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(3)).admitted);
  ASSERT_TRUE(mgr.admit(aggressor_tenant(4, 0.5)).admitted);
  mgr.enable_isolation();
  const auto run = mgr.run(1, at_us(50'000));

  for (int id : {2, 3}) {
    const auto* tr = run.tenant(jobs::TenantId(id));
    ASSERT_NE(tr, nullptr);
    ASSERT_EQ(tr->finished, cl.num_workers()) << "tenant " << id;
  }
  // Sharing the fabric with a neighbour and an aggressor — with
  // partitioned buckets and weighted queues — must not change a single
  // result bit.
  EXPECT_TRUE(
      cluster::bit_identical(solo2.tenants[0].results, run.tenant(2)->results));
  EXPECT_TRUE(
      cluster::bit_identical(solo3.tenants[0].results, run.tenant(3)->results));
  EXPECT_EQ(solo2.tenants[0].digest(), run.tenant(2)->digest());
  EXPECT_EQ(solo3.tenants[0].digest(), run.tenant(3)->digest());
}

// --- Determinism ------------------------------------------------------------

TEST(MultiTenant, ThreeTenantGoldenDigestIsDeterministic) {
  auto once = [] {
    Cluster cl(small_spec());
    jobs::JobManager mgr(cl);
    EXPECT_TRUE(mgr.admit(allreduce_tenant(2, 4)).admitted);
    EXPECT_TRUE(mgr.admit(allreduce_tenant(3, 2)).admitted);
    EXPECT_TRUE(mgr.admit(aggressor_tenant(4, 0.9)).admitted);
    mgr.enable_isolation();
    const auto run = mgr.run(1, at_us(50'000));
    std::vector<std::uint64_t> digests;
    for (const auto& tr : run.tenants) digests.push_back(tr.digest());
    return digests;
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a, b);
}

// --- Tenant-scoped faults ---------------------------------------------------

TEST(Faults, TenantQualifiedCrashHitsOnlyThatTenant) {
  ClusterSpec spec = small_spec();
  spec.host_link.gbps = 10.0;  // stretch the run past the crash instant
  Cluster cl(spec);
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(2)).admitted);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(3)).admitted);

  faults::FaultInjector injector(cl.simulator());
  injector.bind(cl);
  mgr.bind_fault_injector(injector);
  injector.arm(faults::FaultSchedule::parse("at 30us crash worker:1 tenant=2"));

  const auto run = mgr.run(1, at_us(10'000));
  // Tenant 2 lost one worker; tenant 3 is untouched.
  EXPECT_EQ(run.tenant(2)->finished, cl.num_workers() - 1);
  EXPECT_EQ(run.tenant(3)->finished, cl.num_workers());
  EXPECT_TRUE(mgr.tenant_worker(2, 1)->crashed());
  EXPECT_FALSE(mgr.tenant_worker(3, 1)->crashed());

  bool logged = false;
  for (const auto& entry : injector.log()) {
    if (entry.what.find("tenant=2") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST(Faults, TenantQualifierRequiresResolver) {
  Cluster cl(small_spec());
  faults::FaultInjector injector(cl.simulator());
  injector.bind(cl);
  injector.arm(faults::FaultSchedule::parse("at 5us crash worker:0 tenant=7"));
  EXPECT_THROW(cl.simulator().run_until(at_us(10)), std::logic_error);
}

TEST(Faults, DslRejectsTenantOnNonWorkerVerbs) {
  try {
    faults::FaultSchedule::parse("at 5us stall leaf:0 for 1us tenant=2");
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tenant="), std::string::npos);
  }
}

// --- Tenant-scoped teardown -------------------------------------------------

TEST(Teardown, RemovesOneTenantLeavesOthersRunning) {
  ClusterSpec spec = small_spec();
  spec.host_link.gbps = 10.0;
  Cluster cl(spec);
  jobs::JobManager mgr(cl);
  jobs::TenantSpec quota2 = allreduce_tenant(2);
  quota2.sms_quota_bytes = 4ull << 20;
  ASSERT_TRUE(mgr.admit(quota2).admitted);
  ASSERT_TRUE(mgr.admit(allreduce_tenant(3)).admitted);

  cl.simulator().schedule_at(at_us(30), [&] { mgr.teardown(2); });
  const auto run = mgr.run(1, at_us(10'000));

  EXPECT_LT(run.tenant(2)->finished, cl.num_workers());
  EXPECT_EQ(run.tenant(3)->finished, cl.num_workers());
  for (auto* app : cl.apps()) {
    EXPECT_FALSE(app->has_job(2));
    EXPECT_TRUE(app->has_job(3));
  }
  EXPECT_EQ(cl.leaf(0).pfe(0).sms().tenant_bytes_used(2), 0u);
  EXPECT_EQ(mgr.admitted(), std::vector<jobs::TenantId>{3});
}

// --- Spine failover with three live tenants ---------------------------------

TEST(Failover, ThreeLiveTenantsAllRehomeAndFinishBitIdentical) {
  const auto solo2 = run_solo(allreduce_tenant(2));
  const auto solo3 = run_solo(allreduce_tenant(3));
  const auto solo4 = run_solo(allreduce_tenant(4));

  ClusterSpec spec = small_spec(/*backup=*/true);
  spec.host_link.gbps = 10.0;
  Cluster cl(spec);
  jobs::JobManager mgr(cl);
  for (std::uint8_t id : {2, 3, 4}) {
    ASSERT_TRUE(mgr.admit(allreduce_tenant(id)).admitted);
    for (int w = 0; w < cl.num_workers(); ++w) {
      mgr.tenant_worker(id, w)->enable_hardened_retransmit(
          sim::Duration::millis(1), /*retry_budget=*/50,
          sim::Duration::millis(8));
    }
  }

  recovery::RecoveryConfig rc;
  rc.heartbeat.period = sim::Duration::micros(20);
  rc.heartbeat.check_period = sim::Duration::micros(10);
  rc.heartbeat.phi_threshold = 4.0;
  recovery::RecoveryManager rmgr(cl, rc);
  rmgr.start();

  faults::FaultInjector injector(cl.simulator());
  injector.bind(cl);
  injector.arm(faults::FaultSchedule::parse("at 60us kill spine"));

  const auto run = mgr.run(1, at_us(80'000));
  rmgr.stop();

  EXPECT_EQ(rmgr.failovers(), 1u);
  EXPECT_TRUE(cl.on_backup_spine());
  // The failover re-homed *every* tenant: all three finish on the backup
  // spine and every result is bit-identical to its solo run.
  for (int id : {2, 3, 4}) {
    ASSERT_EQ(run.tenant(jobs::TenantId(id))->finished, cl.num_workers())
        << "tenant " << id;
  }
  EXPECT_TRUE(
      cluster::bit_identical(solo2.tenants[0].results, run.tenant(2)->results));
  EXPECT_TRUE(
      cluster::bit_identical(solo3.tenants[0].results, run.tenant(3)->results));
  EXPECT_TRUE(
      cluster::bit_identical(solo4.tenants[0].results, run.tenant(4)->results));
}

}  // namespace
