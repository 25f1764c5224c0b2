// In-network RPC aggregation & hot-key caching (extension, docs/netrpc.md):
// fan-out call latency and GET latency of the Trio NetRPC datapath against
// the two baselines the paper's architecture argument predicts it beats.
//
// Three systems run the same closed-loop client workload:
//   * trio      — the NetRpcApp datapath: responses merge in-flight at the
//                 rack-0 leaf PFE, hot-key GETs answer from the SMS cache,
//                 and the aging scan completes stalled fan-outs *degraded*;
//   * hostmerge — the same cluster with the PFE service removed: every
//                 RPC_RESP rides to the client, which reduces host-side
//                 (the end-host-only deployment);
//   * pisa      — the same protocol on a Tofino-style PISA pipeline
//                 (netrpc/baseline.hpp): merging works, but there are no
//                 data-plane timers (a straggling replica stalls the call
//                 until it answers; a crashed one wedges the slot forever)
//                 and majority merge is rejected structurally.
//
// Three scenarios: clean, one replica straggling (stalls 300us mid-run)
// and one replica crashed mid-run. The headline gates: trio's p99 call
// latency beats both baselines under the straggler, after the crash trio
// completes every call inside the client call timeout that host-merge
// clients wait out (PISA wedges), cache-hit GETs run well under the full
// client-server RTT, a co-tenant Trio-ML allreduce stays bit-identical to
// its solo run, and every digest is replay-identical (determinism). The
// replays run with one shard per router, so they double as the netrpc
// shard-count oracle.
//
//   fig_netrpc [--quick] [--json-out=<file>]   # BENCH_netrpc.json in CI
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/tenant.hpp"
#include "netrpc/baseline.hpp"
#include "netrpc/host.hpp"
#include "netrpc/wire_format.hpp"
#include "pisa/switch.hpp"

namespace {

constexpr jobs::TenantId kRpcTenant = 4;
constexpr jobs::TenantId kMlTenant = 2;

enum class Scenario { kClean, kStraggler, kCrash };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kClean: return "clean";
    case Scenario::kStraggler: return "straggler";
    case Scenario::kCrash: return "crash";
  }
  return "?";
}

// Fault timing shared by all three systems: the fault hits at 30us, a
// straggler holds its responses for 300us. Trio's aging scan (50us) must
// complete stalled fan-outs degraded well before the stall lifts.
// --quick halves the call count, so the fault moves to 15us to still
// land mid-run on the fast PISA pipeline (clean RTT ~11us).
sim::Duration kFaultAt = sim::Duration::micros(30);
const sim::Duration kStallLen = sim::Duration::micros(300);
const sim::Duration kAging = sim::Duration::micros(50);
const sim::Time kDeadline = sim::Time() + sim::Duration::millis(20);

cluster::ClusterSpec netrpc_spec() {
  cluster::ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 1024;
  return spec;
}

jobs::TenantSpec rpc_tenant(int calls, int gets, int puts) {
  jobs::TenantSpec t;
  t.id = kRpcTenant;
  t.kind = jobs::TenantKind::kNetRpc;
  t.rpc_policy = netrpc::MergePolicy::kSum;
  t.rpc_value_words = 8;
  t.rpc_servers = 3;
  t.rpc_clients = 1;
  t.rpc_window = 8;
  t.rpc_calls = std::uint32_t(calls);
  t.rpc_gets = std::uint32_t(gets);
  t.rpc_puts = std::uint32_t(puts);
  t.rpc_hot_keys = 4;
  return t;
}

jobs::TenantSpec ml_tenant() {
  jobs::TenantSpec t;
  t.id = kMlTenant;
  t.kind = jobs::TenantKind::kAllreduce;
  t.weight = 2;
  t.grads = 128 * 16;  // 16 blocks per worker
  t.window = 64;
  t.block_cnt_max = 256;
  return t;
}

struct TrioOutcome {
  std::uint64_t calls = 0, degraded = 0, gets = 0, cached = 0;
  int finished = 0;
  double p50_us = 0, p99_us = 0;
  double hit_us = 0, miss_us = 0;
  std::uint64_t digest = 0;
  std::uint64_t ctr_hit = 0, ctr_fill = 0, ctr_inval = 0;
  std::vector<std::uint64_t> all_digests;  // admission order
  std::vector<trioml::AllreduceResult> ml_results;
  int ml_finished = 0;
};

TrioOutcome run_trio(Scenario sc, bool host_merge, bool co_allreduce,
                     int calls, int gets, int puts,
                     bool shard_per_router = false) {
  cluster::ClusterSpec spec = netrpc_spec();
  if (shard_per_router) spec.shards = spec.routers();
  cluster::Cluster cl(spec);
  jobs::JobManager mgr(cl);
  mgr.set_netrpc_aging(kAging);
  if (co_allreduce && !mgr.admit(ml_tenant()).admitted) return {};
  if (!mgr.admit(rpc_tenant(calls, gets, puts)).admitted) return {};
  mgr.enable_isolation();

  if (sc != Scenario::kClean) {
    // server_id 2 sits on the last host of rack 0.
    netrpc::RpcServer* srv =
        mgr.tenant_rpc_server(kRpcTenant, netrpc_spec().workers_per_rack - 1);
    if (srv == nullptr) return {};
    // Rack 0 is domain 0, which shard 0 runs at any shard count.
    cl.simulator().schedule_at(sim::Time() + kFaultAt, [srv, sc] {
      if (sc == Scenario::kCrash) {
        srv->crash();
      } else {
        srv->stall_for(kStallLen);
      }
    });
  }
  // The end-host baseline: same hosts, same fabric, no PFE involvement —
  // bypassed frames plain-forward, so every RPC_RESP rides to the client
  // and is merged host-side.
  if (host_merge) mgr.netrpc_app()->set_bypass(kRpcTenant, true);

  const jobs::MultiTenantRun run = mgr.run(/*gen_id=*/1, kDeadline);

  TrioOutcome out;
  const jobs::TenantRun* tr = run.tenant(kRpcTenant);
  if (tr == nullptr) return out;
  out.calls = tr->netrpc.calls;
  out.degraded = tr->netrpc.degraded;
  out.gets = tr->netrpc.gets;
  out.cached = tr->netrpc.cached_gets;
  out.finished = tr->finished;
  out.digest = tr->digest();
  sim::Samples lat = tr->netrpc.call_latency_us;
  if (lat.count() > 0) {
    out.p50_us = lat.percentile(50);
    out.p99_us = lat.percentile(99);
  }
  sim::Samples hit = tr->netrpc.get_hit_latency_us;
  sim::Samples miss = tr->netrpc.get_miss_latency_us;
  if (hit.count() > 0) out.hit_us = hit.mean();
  if (miss.count() > 0) out.miss_us = miss.mean();
  if (!host_merge) {
    netrpc::NetRpcApp* app = mgr.netrpc_app();
    out.ctr_hit = app->counter_packets(kRpcTenant, netrpc::kCtrCacheHit);
    out.ctr_fill = app->counter_packets(kRpcTenant, netrpc::kCtrCacheFill);
    out.ctr_inval = app->counter_packets(kRpcTenant, netrpc::kCtrInvalidate);
  }
  for (const jobs::TenantRun& t : run.tenants) {
    out.all_digests.push_back(t.digest());
  }
  if (co_allreduce) {
    if (const jobs::TenantRun* ml = run.tenant(kMlTenant)) {
      out.ml_results = ml->results;
      out.ml_finished = ml->finished;
    }
  }
  return out;
}

struct PisaOutcome {
  std::uint64_t issued = 0, completed = 0;
  double p50_us = 0, p99_us = 0;
  bool majority_rejected = false;
};

// Closed-loop driver on the PISA baseline: one client, three replicas, the
// same window/service-time/fault schedule as the cluster runs. Servers are
// port sinks that answer after their service time; the switch merges.
PisaOutcome run_pisa(Scenario sc, int calls) {
  sim::Simulator sim;
  pisa::Switch sw(sim, pisa::SwitchConfig{});
  netrpc::PisaRpcConfig cfg;
  cfg.tenant = kRpcTenant;
  cfg.value_words = 8;
  cfg.policy = netrpc::MergePolicy::kSum;
  cfg.client_cnt = 1;
  const int client_port = 0;
  const std::vector<int> server_ports = {1, 2, 3};
  netrpc::PisaRpcSwitch rpc(sw, cfg, {client_port}, server_ports);

  // Per-hop wire latency sized so the clean round trip lands near the
  // cluster path's (~11 us vs ~17 us) and the run is still in flight when
  // the fault hits at kFaultAt.
  const sim::Duration wire = sim::Duration::micros(4);
  const sim::Duration service = sim::Duration::micros(2);
  const net::MacAddr client_mac{0x02, 0, 0, 0, 0, 1};
  const net::MacAddr server_mac{0x02, 0, 0, 0, 0, 0x10};
  const net::Ipv4Addr client_ip = net::Ipv4Addr::from_octets(10, 9, 0, 1);
  auto server_ip = [](int s) {
    return net::Ipv4Addr::from_octets(10, 9, 1, std::uint8_t(1 + s));
  };

  PisaOutcome out;
  std::uint32_t next_rpc = 1, inflight = 0;
  std::unordered_map<std::uint32_t, sim::Time> issue_time;
  sim::Samples lat;

  std::function<void()> pump = [&] {
    while (out.issued < std::uint64_t(calls) && inflight < 8) {
      const std::uint32_t id = next_rpc++;
      issue_time[id] = sim.now();
      ++out.issued;
      ++inflight;
      for (std::uint8_t s = 0; s < 3; ++s) {
        netrpc::NetRpcHeader hdr;
        hdr.op = netrpc::Op::kRpcReq;
        hdr.tenant = kRpcTenant;
        hdr.client_id = 0;
        hdr.server_id = s;
        hdr.policy = cfg.policy;
        hdr.value_cnt = 8;
        hdr.server_cnt = 3;
        hdr.rpc_id = id;
        hdr.key = netrpc::make_key(kRpcTenant, 0);
        std::vector<std::uint32_t> args(8, id);
        const net::Buffer f = netrpc::build_netrpc_frame(
            client_mac, server_mac, client_ip, server_ip(s),
            netrpc::kRequestUdpPort, netrpc::kRequestUdpPort, hdr, args, 8);
        sim.schedule_in(wire,
                        [&sw, f] { sw.receive(net::Packet::make(f), 0); });
      }
    }
  };

  for (int s = 0; s < 3; ++s) {
    sw.attach_port_sink(server_ports[s], [&, s](net::PacketPtr pkt) {
      const net::Buffer& f = pkt->frame();
      if (!netrpc::is_netrpc_frame(f)) return;
      const netrpc::NetRpcHeader hdr =
          netrpc::NetRpcHeader::parse(f, netrpc::kNetRpcHdrOff);
      if (hdr.op != netrpc::Op::kRpcReq) return;
      sim::Time respond_at = sim.now() + service;
      if (s == 2 && sim.now() >= sim::Time() + kFaultAt) {
        if (sc == Scenario::kCrash) return;  // silent forever
        if (sc == Scenario::kStraggler &&
            sim.now() < sim::Time() + kFaultAt + kStallLen) {
          respond_at = std::max(respond_at,
                                sim::Time() + kFaultAt + kStallLen);
        }
      }
      netrpc::NetRpcHeader rh = hdr;
      rh.op = netrpc::Op::kRpcResp;
      std::vector<std::uint32_t> vals(8);
      for (std::size_t i = 0; i < vals.size(); ++i) {
        vals[i] = hdr.rpc_id * 31u + std::uint32_t(s) * 7u +
                  std::uint32_t(i);
      }
      const net::Buffer rf = netrpc::build_netrpc_frame(
          server_mac, client_mac, server_ip(s), client_ip,
          netrpc::kResponseUdpPort, netrpc::kResponseUdpPort, rh, vals, 8);
      const int port = server_ports[std::size_t(s)];
      sim.schedule_at(respond_at + wire, [&sw, rf, port] {
        sw.receive(net::Packet::make(rf), port);
      });
    });
  }
  sw.attach_port_sink(client_port, [&](net::PacketPtr pkt) {
    const net::Buffer& f = pkt->frame();
    if (!netrpc::is_netrpc_frame(f)) return;
    const netrpc::NetRpcHeader hdr =
        netrpc::NetRpcHeader::parse(f, netrpc::kNetRpcHdrOff);
    if (hdr.op != netrpc::Op::kMergedResp) return;
    auto it = issue_time.find(hdr.rpc_id);
    if (it == issue_time.end()) return;
    lat.add((sim.now() - it->second).us());
    issue_time.erase(it);
    ++out.completed;
    --inflight;
    pump();
  });

  pump();
  sim.run_until(kDeadline);
  if (lat.count() > 0) {
    out.p50_us = lat.percentile(50);
    out.p99_us = lat.percentile(99);
  }
  return out;
}

bool pisa_rejects_majority() {
  sim::Simulator sim;
  pisa::Switch sw(sim, pisa::SwitchConfig{});
  netrpc::PisaRpcConfig cfg;
  cfg.policy = netrpc::MergePolicy::kMajority;
  try {
    netrpc::PisaRpcSwitch rpc(sw, cfg, {0}, {1, 2, 3});
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::string json_out = benchutil::parse_json_out_flag(argc, argv);

  benchutil::banner(
      "NetRPC: in-network merge + hot-key cache vs end-host and PISA",
      "SS3.2/SS5 substrate carrying a second application (docs/netrpc.md)");

  const int calls = quick ? 24 : 48;
  const int gets = quick ? 24 : 48;
  const int puts = quick ? 4 : 8;
  if (quick) kFaultAt = sim::Duration::micros(15);

  benchutil::JsonSeries series;
  int failures = 0;

  // --- Call latency: scenario x system ------------------------------------
  benchutil::row({"scenario", "system", "completed", "degraded", "p50_us",
                  "p99_us"}, 12);
  struct Cell {
    double p99 = 0;
    std::uint64_t completed = 0;
  };
  std::map<std::string, Cell> cells;
  for (Scenario sc :
       {Scenario::kClean, Scenario::kStraggler, Scenario::kCrash}) {
    for (const char* system : {"trio", "hostmerge", "pisa"}) {
      std::uint64_t completed = 0, degraded = 0;
      double p50 = 0, p99 = 0;
      if (std::strcmp(system, "pisa") == 0) {
        const PisaOutcome p = run_pisa(sc, calls);
        completed = p.completed;
        p50 = p.p50_us;
        p99 = p.p99_us;
      } else {
        const TrioOutcome t = run_trio(
            sc, std::strcmp(system, "hostmerge") == 0, false, calls, 0, 0);
        completed = t.calls;
        degraded = t.degraded;
        p50 = t.p50_us;
        p99 = t.p99_us;
      }
      cells[std::string(scenario_name(sc)) + "/" + system] = {p99, completed};
      benchutil::row({scenario_name(sc), system,
                      std::to_string(completed) + "/" + std::to_string(calls),
                      std::to_string(degraded), benchutil::fmt(p50),
                      benchutil::fmt(p99)},
                     12);
      series.string("scenario", scenario_name(sc))
          .string("system", system)
          .number("calls", std::uint64_t(calls))
          .number("completed", completed)
          .number("degraded", degraded)
          .number("p50_us", p50)
          .number("p99_us", p99)
          .end_row();
    }
  }
  // Gates: under the straggler trio's aged degraded completion beats both
  // timer-less baselines on p99. After the crash trio completes every call
  // inside the client's call timeout; host-merge clients only complete by
  // waiting that timeout out, and PISA, with no timer at all, wedges.
  const Cell trio_strag = cells["straggler/trio"];
  const Cell host_strag = cells["straggler/hostmerge"];
  const Cell pisa_strag = cells["straggler/pisa"];
  if (!(trio_strag.p99 < host_strag.p99 && trio_strag.p99 < pisa_strag.p99 &&
        trio_strag.completed == std::uint64_t(calls))) {
    std::printf("FAIL: straggler p99 %.2f us not under baselines "
                "(%.2f / %.2f)\n",
                trio_strag.p99, host_strag.p99, pisa_strag.p99);
    ++failures;
  }
  const double timeout_us = netrpc::RpcClient::Config{}.call_timeout.us();
  const Cell trio_crash = cells["crash/trio"];
  const Cell host_crash = cells["crash/hostmerge"];
  const Cell pisa_crash = cells["crash/pisa"];
  if (!(trio_crash.completed == std::uint64_t(calls) &&
        trio_crash.p99 < timeout_us && host_crash.p99 >= timeout_us &&
        pisa_crash.completed < std::uint64_t(calls))) {
    std::printf("FAIL: crash: trio %llu/%d at p99 %.2f us, hostmerge p99 "
                "%.2f us (call timeout %.0f us), pisa %llu/%d\n",
                static_cast<unsigned long long>(trio_crash.completed), calls,
                trio_crash.p99, host_crash.p99, timeout_us,
                static_cast<unsigned long long>(pisa_crash.completed), calls);
    ++failures;
  }

  // --- Majority: structurally impossible on the PISA baseline -------------
  const bool majority_rejected = pisa_rejects_majority();
  std::printf("\nmajority merge on PISA: %s (Trio runs it in one pass)\n",
              majority_rejected ? "rejected at install" : "ACCEPTED?!");
  if (!majority_rejected) ++failures;
  series.string("check", "pisa_majority_rejected")
      .boolean("rejected", majority_rejected)
      .end_row();

  // --- Hot-key cache: hit latency vs full client-server RTT ---------------
  const TrioOutcome cache = run_trio(Scenario::kClean, false, false,
                                     calls, gets, puts);
  const TrioOutcome nocache = run_trio(Scenario::kClean, true, false,
                                       calls, gets, puts);
  const double hit_rate =
      cache.gets > 0 ? double(cache.cached) / double(cache.gets) : 0;
  std::printf("\nGET latency: cache hit %.2f us vs miss %.2f us "
              "(no-cache baseline %.2f us), hit rate %.0f%%\n",
              cache.hit_us, cache.miss_us, nocache.miss_us, 100 * hit_rate);
  std::printf("PFE cache counters: %llu hits, %llu fills, %llu invalidates\n",
              static_cast<unsigned long long>(cache.ctr_hit),
              static_cast<unsigned long long>(cache.ctr_fill),
              static_cast<unsigned long long>(cache.ctr_inval));
  if (!(cache.cached > 0 && cache.hit_us < 0.7 * cache.miss_us &&
        cache.hit_us < 0.7 * nocache.miss_us)) {
    std::printf("FAIL: cache hits not well under the full RTT\n");
    ++failures;
  }
  series.string("check", "hot_key_cache")
      .number("hit_us", cache.hit_us)
      .number("miss_us", cache.miss_us)
      .number("nocache_us", nocache.miss_us)
      .number("hit_rate", hit_rate)
      .number("cache_fills", cache.ctr_fill)
      .end_row();

  // --- Co-tenancy: the RPC service beside a Trio-ML allreduce -------------
  std::vector<trioml::AllreduceResult> ml_solo;
  {
    cluster::Cluster cl(netrpc_spec());
    jobs::JobManager mgr(cl);
    mgr.admit(ml_tenant());
    mgr.enable_isolation();
    const auto run = mgr.run(1, kDeadline);
    ml_solo = run.tenant(kMlTenant)->results;
  }
  const TrioOutcome co1 = run_trio(Scenario::kClean, false, true,
                                   calls, gets, puts);
  const TrioOutcome co2 = run_trio(Scenario::kClean, false, true, calls,
                                   gets, puts, /*shard_per_router=*/true);
  const bool ml_identical = cluster::bit_identical(ml_solo, co1.ml_results);
  const bool co_deterministic =
      !co1.all_digests.empty() && co1.all_digests == co2.all_digests;
  std::printf("\nco-tenant allreduce: %d workers finished, results %s vs "
              "solo; rpc cache hits %llu\n",
              co1.ml_finished, ml_identical ? "bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(co1.cached));
  if (!ml_identical || !co_deterministic || co1.finished < 1 ||
      co1.cached == 0) {
    std::printf("FAIL: co-tenancy degraded the allreduce or the cache\n");
    ++failures;
  }
  series.string("check", "co_tenancy")
      .boolean("allreduce_bit_identical", ml_identical)
      .boolean("replay_identical", co_deterministic)
      .number("rpc_cached_gets", co1.cached)
      .number("ml_finished", std::uint64_t(co1.ml_finished))
      .end_row();

  // --- Golden digests + determinism self-check ----------------------------
  const TrioOutcome g1 = run_trio(Scenario::kClean, false, false,
                                  calls, gets, puts);
  const TrioOutcome g2 = run_trio(Scenario::kClean, false, false,
                                  calls, gets, puts, /*shard_per_router=*/true);
  const TrioOutcome f1 = run_trio(Scenario::kCrash, false, false, calls, 0, 0);
  const TrioOutcome f2 = run_trio(Scenario::kCrash, false, false, calls, 0, 0,
                                  /*shard_per_router=*/true);
  const bool deterministic = g1.digest == g2.digest && f1.digest == f2.digest;
  std::printf("\ngolden digests: clean %016llx, crash %016llx, co-tenant",
              static_cast<unsigned long long>(g1.digest),
              static_cast<unsigned long long>(f1.digest));
  for (std::uint64_t d : co1.all_digests) {
    std::printf(" %016llx", static_cast<unsigned long long>(d));
  }
  std::printf(" (replay %s)\n", deterministic && co_deterministic
                                    ? "identical"
                                    : "DIVERGED");
  if (!deterministic) ++failures;
  series.string("check", "golden_digest_determinism")
      .boolean("deterministic", deterministic && co_deterministic)
      .string("clean_digest", benchutil::hex64(g1.digest))
      .string("crash_digest", benchutil::hex64(f1.digest))
      .end_row();

  if (!json_out.empty() && series.write_file(json_out)) {
    std::printf("\nwrote %zu rows to %s\n", series.row_count(),
                json_out.c_str());
  }
  if (failures != 0) {
    std::printf("\n%d gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}
