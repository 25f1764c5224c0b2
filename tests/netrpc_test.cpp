// NetRPC subsystem acceptance (docs/netrpc.md): wire format round-trips,
// the jobs-DSL netrpc kind, the end-to-end in-network path on a Cluster
// (fan-out merge, hot-key cache hit/miss/invalidate), degraded completion
// under a crashed replica, cache-drop faults, co-tenancy beside a Trio-ML
// allreduce job with bit-identity, deterministic golden digests, and the
// structural limits of the PISA baseline.
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
#include "netrpc/app.hpp"
#include "netrpc/baseline.hpp"
#include "netrpc/host.hpp"
#include "netrpc/layout.hpp"
#include "netrpc/wire_format.hpp"
#include "pisa/switch.hpp"
#include "sim/digest.hpp"

namespace {

using cluster::Cluster;
using cluster::ClusterSpec;

sim::Time at_us(std::int64_t v) {
  return sim::Time(sim::Duration::micros(v).ns());
}

/// 2 racks x 4 hosts: rack 0 carries 1 netrpc client (host 0) and up to 3
/// replicas (hosts 1..3) beside the cluster's built-in allreduce workers.
ClusterSpec netrpc_spec() {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 1024;
  return spec;
}

jobs::TenantSpec netrpc_tenant(std::uint8_t id) {
  jobs::TenantSpec t;
  t.id = id;
  t.kind = jobs::TenantKind::kNetRpc;
  t.rpc_policy = netrpc::MergePolicy::kSum;
  t.rpc_value_words = 8;
  t.rpc_servers = 3;
  t.rpc_clients = 1;
  t.rpc_window = 8;
  t.rpc_calls = 16;
  t.rpc_gets = 32;
  t.rpc_puts = 4;
  t.rpc_hot_keys = 4;
  return t;
}

jobs::TenantSpec allreduce_tenant(std::uint8_t id) {
  jobs::TenantSpec t;
  t.id = id;
  t.kind = jobs::TenantKind::kAllreduce;
  t.grads = 128 * 16;
  t.window = 64;
  t.block_cnt_max = 256;
  return t;
}

// --- Wire format ------------------------------------------------------------

TEST(NetRpcWire, HeaderRoundTripsAndKeysPartitionByTenant) {
  netrpc::NetRpcHeader hdr;
  hdr.op = netrpc::Op::kRpcResp;
  hdr.tenant = 9;
  hdr.client_id = 3;
  hdr.server_id = 2;
  hdr.policy = netrpc::MergePolicy::kMajority;
  hdr.flags = netrpc::kFlagDegraded;
  hdr.value_cnt = 8;
  hdr.server_cnt = 5;
  hdr.rpc_id = 0xdeadbeef;
  hdr.key = netrpc::make_key(9, 0x1234'5678'9abcull);

  const std::vector<std::uint32_t> vals{1, 2, 3, 4, 5, 6, 7, 8};
  net::Buffer frame = netrpc::build_netrpc_frame(
      net::MacAddr{1}, net::MacAddr{2}, net::Ipv4Addr::from_octets(10, 0, 0, 1),
      net::Ipv4Addr::from_octets(10, 0, 0, 2), 12100,
      netrpc::kResponseUdpPort, hdr, vals, 8);
  ASSERT_TRUE(netrpc::is_netrpc_frame(frame));

  const auto parsed = netrpc::NetRpcHeader::parse(frame, netrpc::kNetRpcHdrOff);
  EXPECT_EQ(parsed.op, hdr.op);
  EXPECT_EQ(parsed.tenant, 9);
  EXPECT_EQ(parsed.client_id, 3);
  EXPECT_EQ(parsed.server_id, 2);
  EXPECT_EQ(parsed.policy, netrpc::MergePolicy::kMajority);
  EXPECT_EQ(parsed.flags, netrpc::kFlagDegraded);
  EXPECT_EQ(parsed.rpc_id, 0xdeadbeefu);
  EXPECT_EQ(parsed.key, hdr.key);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(netrpc::read_value(frame, i), vals[i]);
  }

  // The tenant id occupies bits 48..55 — the hash-partition slice byte —
  // and the user key survives the round trip.
  EXPECT_EQ(netrpc::tenant_of_key(hdr.key), 9);
  EXPECT_EQ(netrpc::user_key_of(hdr.key), 0x1234'5678'9abcull);
  EXPECT_EQ(hdr.key >> 48, 9u);
}

TEST(NetRpcWire, ServiceWorstCaseCoversAllTables) {
  netrpc::ServiceConfig cfg;
  cfg.client_cnt = 2;
  cfg.server_cnt = 3;
  const std::uint64_t bytes = netrpc::service_worst_case_bytes(cfg);
  // 2 clients * 16 slots * 256 B pending + 64 * 128 B cache + nexthops
  // + counters.
  EXPECT_EQ(bytes, 2 * 16 * 256 + 64 * 128 + (2 + 3) * 8 +
                       netrpc::kCounterCount * netrpc::kCounterBytes);
}

// --- Jobs DSL ---------------------------------------------------------------

TEST(NetRpcDsl, ParsesNetRpcTenant) {
  const auto spec = jobs::JobsSpec::parse(
      "tenant 4 netrpc policy=majority values=6 servers=5 clients=2 "
      "rpcwindow=4 calls=10 gets=20 puts=3 hotkeys=8\n");
  ASSERT_EQ(spec.size(), 1u);
  const auto& t = spec.tenants[0];
  EXPECT_EQ(t.kind, jobs::TenantKind::kNetRpc);
  EXPECT_EQ(t.rpc_policy, netrpc::MergePolicy::kMajority);
  EXPECT_EQ(t.rpc_value_words, 6);
  EXPECT_EQ(t.rpc_servers, 5);
  EXPECT_EQ(t.rpc_clients, 2);
  EXPECT_EQ(t.rpc_window, 4u);
  EXPECT_EQ(t.rpc_calls, 10u);
  EXPECT_EQ(t.rpc_gets, 20u);
  EXPECT_EQ(t.rpc_puts, 3u);
  EXPECT_EQ(t.rpc_hot_keys, 8u);
}

// --- End-to-end on the Cluster ----------------------------------------------

TEST(NetRpc, SoloRunMergesInNetworkAndHitsTheCache) {
  Cluster cl(netrpc_spec());
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(netrpc_tenant(4)).admitted);

  const auto run = mgr.run(/*gen_id=*/1, at_us(50'000));
  const auto* tr = run.tenant(4);
  ASSERT_NE(tr, nullptr);
  EXPECT_EQ(tr->finished, 1);
  EXPECT_EQ(tr->netrpc.puts, 4u);
  EXPECT_EQ(tr->netrpc.gets, 32u);
  EXPECT_EQ(tr->netrpc.calls, 16u);
  EXPECT_EQ(tr->netrpc.degraded, 0u);

  // Hot keys repeat, so after each key's first (miss+fill) GET the PFE
  // answers from its SMS cache.
  EXPECT_GT(tr->netrpc.cached_gets, 0u);
  EXPECT_LT(tr->netrpc.cached_gets, tr->netrpc.gets);

  netrpc::NetRpcApp* app = mgr.netrpc_app();
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->counter_packets(4, netrpc::kCtrCacheHit),
            tr->netrpc.cached_gets);
  EXPECT_GT(app->counter_packets(4, netrpc::kCtrCacheFill), 0u);
  // Every fan-out response was consumed by an in-flight merge: per call,
  // N-1 responses are absorbed (kCtrMerged) and the N-th completes and
  // emits the single MergedResp (kCtrCompleted). The client never saw
  // 3x16 raw responses.
  EXPECT_EQ(app->counter_packets(4, netrpc::kCtrCompleted), 16u);
  EXPECT_EQ(app->counter_packets(4, netrpc::kCtrMerged), 2u * 16u);
  const auto* client = mgr.tenant_rpc_client(4, 0);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->host_merged_calls(), 0u);

  // The in-network sum equals the host-side sum of the replicas' work:
  // spot-check via the digest being non-trivial and latencies recorded.
  EXPECT_NE(tr->netrpc.value_digest.value(), sim::Digest::kBasis);
  EXPECT_GT(tr->netrpc.call_latency_us.count(), 0u);
  EXPECT_GT(tr->netrpc.get_hit_latency_us.count(), 0u);
  // Cache hits turn around at the PFE — well under the full server RTT.
  EXPECT_LT(tr->netrpc.get_hit_latency_us.mean(),
            tr->netrpc.get_miss_latency_us.mean());
}

TEST(NetRpc, PutInvalidatesTheCacheInTransit) {
  Cluster cl(netrpc_spec());
  jobs::JobManager mgr(cl);
  jobs::TenantSpec spec = netrpc_tenant(4);
  ASSERT_TRUE(mgr.admit(spec).admitted);
  netrpc::RpcClient* client = mgr.tenant_rpc_client(4, 0);
  ASSERT_NE(client, nullptr);
  auto& sim = cl.simulator();

  std::vector<netrpc::GetResult> gets;
  auto get = [&](std::uint64_t key) {
    client->get(key, [&](netrpc::GetResult r) { gets.push_back(r); });
    sim.run_until(sim.now() + sim::Duration::micros(200));
  };

  get(1);  // miss, fills the cache
  get(1);  // hit
  ASSERT_EQ(gets.size(), 2u);
  EXPECT_FALSE(gets[0].cached);
  EXPECT_TRUE(gets[1].cached);
  EXPECT_EQ(gets[0].values, gets[1].values);

  bool put_done = false;
  const std::vector<std::uint32_t> fresh{42, 43, 44, 45, 46, 47, 48, 49};
  client->put(1, fresh, [&](netrpc::PutResult) { put_done = true; });
  sim.run_until(sim.now() + sim::Duration::micros(200));
  ASSERT_TRUE(put_done);
  EXPECT_EQ(mgr.netrpc_app()->counter_packets(4, netrpc::kCtrInvalidate), 1u);

  get(1);  // the PUT invalidated the entry: miss again, new values
  get(1);  // and the refill serves them from the cache
  ASSERT_EQ(gets.size(), 4u);
  EXPECT_FALSE(gets[2].cached);
  EXPECT_TRUE(gets[3].cached);
  EXPECT_EQ(gets[2].values, fresh);
  EXPECT_EQ(gets[3].values, fresh);
}

TEST(NetRpc, CrashedReplicaCompletesDegradedViaAging) {
  Cluster cl(netrpc_spec());
  jobs::JobManager mgr(cl);
  mgr.set_netrpc_aging(sim::Duration::micros(100));
  jobs::TenantSpec spec = netrpc_tenant(4);
  spec.rpc_gets = 0;  // a GET homed on the dead replica would stall
  spec.rpc_puts = 0;
  ASSERT_TRUE(mgr.admit(spec).admitted);

  faults::FaultInjector injector(cl);
  mgr.bind_fault_injector(injector);
  // Replica 2 sits on host 3 (servers take the last hosts of rack 0).
  injector.arm(faults::FaultSchedule::parse("at 1us crash worker:3 tenant=4"));

  const auto run = mgr.run(1, at_us(50'000));
  const auto* tr = run.tenant(4);
  ASSERT_NE(tr, nullptr);
  EXPECT_TRUE(mgr.tenant_rpc_server(4, 3)->crashed());
  // Every call still completes — partially, via the PFE's aging scan —
  // instead of hanging on the dead replica.
  EXPECT_EQ(tr->finished, 1);
  EXPECT_EQ(tr->netrpc.calls, 16u);
  EXPECT_EQ(tr->netrpc.degraded, 16u);
  EXPECT_GT(mgr.netrpc_app()->counter_packets(4, netrpc::kCtrDegraded), 0u);
  EXPECT_EQ(mgr.netrpc_app()->stats().degraded_emitted, 16u);

  bool logged = false;
  for (const auto& e : injector.log()) {
    if (e.what.find("crash worker:3 tenant=4") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
}

// The expected in-network sum merge for one fan-out call: every replica
// contributes RpcServer::compute() = arg + i + rpc_id % 97 + server_id * 13.
std::vector<std::uint32_t> expected_sum(const std::vector<std::uint32_t>& args,
                                        std::uint32_t rpc_id,
                                        std::uint8_t servers) {
  std::vector<std::uint32_t> out(args.size());
  std::uint32_t id_term = 0;
  for (std::uint8_t s = 0; s < servers; ++s) id_term += s * 13u;
  for (std::size_t i = 0; i < args.size(); ++i) {
    out[i] = servers * (args[i] + std::uint32_t(i) + rpc_id % 97) + id_term;
  }
  return out;
}

TEST(NetRpc, StragglerCannotPolluteAReusedPendingSlot) {
  // The REVIEW.md high-severity scenario: a stalled replica's late
  // RPC_RESP arrives *after* the aging scan completed its call degraded
  // and reset the pending slot. The late response re-claims the empty
  // slot; a later call that maps to the same slot (ids 16 apart) must
  // not fold that stale contribution in — the datapath's FetchSwap64
  // ownership test reclaims the residue instead.
  Cluster cl(netrpc_spec());
  jobs::JobManager mgr(cl);
  mgr.set_netrpc_aging(sim::Duration::micros(100));
  jobs::TenantSpec spec = netrpc_tenant(4);
  spec.rpc_window = 16;
  ASSERT_TRUE(mgr.admit(spec).admitted);
  netrpc::RpcClient* client = mgr.tenant_rpc_client(4, 0);
  ASSERT_NE(client, nullptr);
  auto& sim = cl.simulator();
  const std::vector<std::uint32_t> args{5, 6, 7, 8, 9, 10, 11, 12};

  // Replica 2 (host 3) straggles past the aging patience: call #1
  // completes degraded at ~2 aging periods with 2 contributors.
  mgr.tenant_rpc_server(4, 3)->stall_for(sim::Duration::millis(1));
  std::vector<netrpc::CallResult> results;
  client->call(args, [&](netrpc::CallResult r) { results.push_back(r); });
  sim.run_until(at_us(950));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].degraded);
  EXPECT_EQ(results[0].server_cnt, 2);

  // Burn the other 15 pending slots so the next call reuses slot 1.
  for (int i = 0; i < 15; ++i) {
    client->call(args, [&](netrpc::CallResult r) { results.push_back(r); });
  }
  // The stall lifts at 1ms: the fillers finish and call #1's straggler
  // response reaches the PFE, where it re-claims the (reset) slot.
  sim.run_until(at_us(1050));
  ASSERT_EQ(results.size(), 16u);

  // The call that reuses slot 1 must merge exactly its own 3 responses.
  client->call(args, [&](netrpc::CallResult r) { results.push_back(r); });
  sim.run_until(at_us(1300));
  ASSERT_EQ(results.size(), 17u);
  const netrpc::CallResult& reused = results.back();
  EXPECT_FALSE(reused.degraded);
  EXPECT_EQ(reused.server_cnt, 3);
  EXPECT_EQ(reused.values, expected_sum(args, reused.rpc_id, 3));
  // The stale residue was detected and reclaimed, not merged.
  EXPECT_GE(mgr.netrpc_app()->counter_packets(4, netrpc::kCtrStale), 1u);
  EXPECT_EQ(client->degraded_calls(), 1u);
}

TEST(NetRpc, KeyOpsBetweenCallsNeverCollideLiveCallsOnASlot) {
  // REVIEW.md medium: get()/put() used to share the call id sequence, so
  // 15 key ops between two call()s put both live calls on the same
  // pending slot and the PFE merged them into each other. Key ops now
  // draw from their own sequence and the call allocator skips held
  // slots.
  Cluster cl(netrpc_spec());
  jobs::JobManager mgr(cl);
  // Aging far beyond the straggle keeps call A live the whole time.
  mgr.set_netrpc_aging(sim::Duration::millis(10));
  ASSERT_TRUE(mgr.admit(netrpc_tenant(4)).admitted);
  netrpc::RpcClient* client = mgr.tenant_rpc_client(4, 0);
  ASSERT_NE(client, nullptr);
  auto& sim = cl.simulator();
  const std::vector<std::uint32_t> args{1, 2, 3, 4, 5, 6, 7, 8};

  // Call A stays live while 15 key ops advance the shared counter the
  // old code used for everything.
  mgr.tenant_rpc_server(4, 3)->stall_for(sim::Duration::millis(2));
  std::vector<netrpc::CallResult> results;
  client->call(args, [&](netrpc::CallResult r) { results.push_back(r); });
  for (std::uint64_t k = 0; k < 15; ++k) {
    client->put(k, args, [](netrpc::PutResult) {});
  }
  sim.run_until(at_us(500));
  ASSERT_TRUE(results.empty());  // A still pending on the straggler

  // Call B must land on its own slot. With the old shared id sequence B
  // took A's slot: B's fast responses completed on top of A's partial
  // merge (wrong values, one response early) and A never completed.
  client->call(args, [&](netrpc::CallResult r) { results.push_back(r); });
  sim.run_until(at_us(1000));
  ASSERT_TRUE(results.empty());  // B waits on the straggler too — no
                                 // cross-call completion possible

  // The stall lifts at 2ms: both calls complete at full fan-in, each
  // merging exactly its own 3 responses.
  sim.run_until(at_us(2500));
  ASSERT_EQ(results.size(), 2u);
  for (const netrpc::CallResult& r : results) {
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.server_cnt, 3);
    EXPECT_EQ(r.values, expected_sum(args, r.rpc_id, 3));
  }
  EXPECT_NE(results[0].rpc_id, results[1].rpc_id);
  EXPECT_EQ(mgr.netrpc_app()->counter_packets(4, netrpc::kCtrStale), 0u);
}

TEST(NetRpc, CacheDropFaultForcesRefill) {
  Cluster cl(netrpc_spec());
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(netrpc_tenant(4)).admitted);
  netrpc::RpcClient* client = mgr.tenant_rpc_client(4, 0);
  auto& sim = cl.simulator();

  faults::FaultInjector injector(cl);
  mgr.bind_fault_injector(injector);
  injector.arm(
      faults::FaultSchedule::parse("at 500us drop-buckets leaf:0 tenant=4"));

  std::vector<netrpc::GetResult> gets;
  auto get = [&](std::uint64_t key) {
    client->get(key, [&](netrpc::GetResult r) { gets.push_back(r); });
    sim.run_until(sim.now() + sim::Duration::micros(100));
  };
  get(2);  // miss + fill
  get(2);  // hit
  EXPECT_GT(mgr.netrpc_app()->cache_entries(4), 0u);

  sim.run_until(at_us(600));  // the fault fires: cache state is destroyed
  EXPECT_EQ(mgr.netrpc_app()->cache_entries(4), 0u);
  EXPECT_GT(injector.buckets_dropped(), 0u);

  get(2);  // refilled from the home replica, not served stale
  get(2);
  ASSERT_EQ(gets.size(), 4u);
  EXPECT_TRUE(gets[1].cached);
  EXPECT_FALSE(gets[2].cached);
  EXPECT_TRUE(gets[3].cached);
  EXPECT_EQ(gets[0].values, gets[2].values);

  bool logged = false;
  for (const auto& e : injector.log()) {
    if (e.what.find("drop-cache leaf:0 tenant=4") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
}

// --- Co-tenancy with Trio-ML ------------------------------------------------

TEST(NetRpc, CoTenantAllreduceStaysBitIdentical) {
  // Solo allreduce baseline.
  std::uint64_t solo_digest = 0;
  std::vector<trioml::AllreduceResult> solo_results;
  {
    Cluster cl(netrpc_spec());
    jobs::JobManager mgr(cl);
    ASSERT_TRUE(mgr.admit(allreduce_tenant(2)).admitted);
    mgr.enable_isolation();
    const auto run = mgr.run(1, at_us(50'000));
    ASSERT_EQ(run.tenant(2)->finished, cl.num_workers());
    solo_digest = run.tenant(2)->digest();
    solo_results = run.tenant(2)->results;
  }

  // The same job beside a netrpc tenant sharing leaf 0's PFE, SMS and
  // hash table (partitioned).
  auto co_run = [&](std::uint64_t* allreduce_digest) {
    Cluster cl(netrpc_spec());
    jobs::JobManager mgr(cl);
    EXPECT_TRUE(mgr.admit(allreduce_tenant(2)).admitted);
    EXPECT_TRUE(mgr.admit(netrpc_tenant(4)).admitted);
    mgr.enable_isolation();
    const auto run = mgr.run(1, at_us(50'000));
    EXPECT_EQ(run.tenant(2)->finished, cl.num_workers());
    EXPECT_EQ(run.tenant(4)->finished, 1);
    EXPECT_EQ(run.tenant(4)->netrpc.calls, 16u);
    *allreduce_digest = run.tenant(2)->digest();
    EXPECT_TRUE(cluster::bit_identical(solo_results, run.tenant(2)->results));
    return run.tenant(4)->digest();
  };
  std::uint64_t co_allreduce = 0;
  const std::uint64_t netrpc_a = co_run(&co_allreduce);
  EXPECT_EQ(co_allreduce, solo_digest);

  // And the whole co-tenant composition replays bit-identically.
  std::uint64_t co_allreduce_b = 0;
  const std::uint64_t netrpc_b = co_run(&co_allreduce_b);
  EXPECT_EQ(co_allreduce, co_allreduce_b);
  EXPECT_EQ(netrpc_a, netrpc_b);
}

TEST(NetRpc, SoloDigestIsDeterministic) {
  auto once = [] {
    Cluster cl(netrpc_spec());
    jobs::JobManager mgr(cl);
    EXPECT_TRUE(mgr.admit(netrpc_tenant(4)).admitted);
    const auto run = mgr.run(1, at_us(50'000));
    return run.tenant(4)->digest();
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, sim::Digest::kBasis);
}

// --- Per-tenant telemetry scopes (docs/telemetry.md) ------------------------

TEST(NetRpc, TenantScopedMetricsAppearUnderTenantPrefix) {
  telemetry::Telemetry telem(/*metrics_on=*/true, /*trace_on=*/false);
  ClusterSpec spec = netrpc_spec();
  spec.telemetry = &telem;
  Cluster cl(spec);
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(netrpc_tenant(4)).admitted);
  const auto run = mgr.run(1, at_us(50'000));
  ASSERT_EQ(run.tenant(4)->finished, 1);
  EXPECT_EQ(telem.metrics.counter_value("tenant.4.client0.cached_gets"),
            run.tenant(4)->netrpc.cached_gets);
}

// --- Admission --------------------------------------------------------------

TEST(NetRpcAdmission, RejectsWhenRackZeroIsTooSmall) {
  Cluster cl(netrpc_spec());  // 4 hosts per rack
  jobs::JobManager mgr(cl);
  jobs::TenantSpec spec = netrpc_tenant(4);
  spec.rpc_servers = 4;  // 1 client + 4 servers > 4 hosts
  const auto r = mgr.admit(spec);
  EXPECT_FALSE(r.admitted);
  EXPECT_NE(r.reason.find("exceed rack 0's"), std::string::npos);
  EXPECT_EQ(mgr.netrpc_app(), nullptr);
  EXPECT_EQ(cl.leaf(0).pfe(0).sms().tenant_bytes_used(4), 0u);
}

TEST(NetRpcAdmission, TeardownReleasesSmsAndStopsMatching) {
  Cluster cl(netrpc_spec());
  jobs::JobManager mgr(cl);
  ASSERT_TRUE(mgr.admit(netrpc_tenant(4)).admitted);
  EXPECT_GT(cl.leaf(0).pfe(0).sms().tenant_bytes_used(4), 0u);
  ASSERT_TRUE(mgr.netrpc_app()->has_service(4));
  mgr.teardown(4);
  EXPECT_FALSE(mgr.netrpc_app()->has_service(4));
  EXPECT_EQ(cl.leaf(0).pfe(0).sms().tenant_bytes_used(4), 0u);
  EXPECT_TRUE(mgr.admitted().empty());
}

// --- The PISA baseline's structural limits ----------------------------------

TEST(NetRpcBaseline, MajorityIsStructurallyImpossible) {
  sim::Simulator sim;
  pisa::SwitchConfig sc;
  pisa::Switch sw(sim, sc);
  netrpc::PisaRpcConfig cfg;
  cfg.policy = netrpc::MergePolicy::kMajority;
  // Boyer-Moore needs a dependent read-modify-write pair per element —
  // two accesses to the same register array in one traversal, which PISA
  // stages cannot express.
  EXPECT_THROW(netrpc::PisaRpcSwitch(sw, cfg, {0}, {1, 2, 3}),
               std::invalid_argument);
}

}  // namespace
