// trio-run — execute a Microcode program on the simulated router against
// synthetic traffic and report what happened.
//
//   trio-run <program.tmc> [--packets N] [--mix ip,arp,opts]
//            [--counter WORD_ADDR] ... [--metrics-out FILE]
//            [--trace-out FILE]
//   trio-run --cluster RxW [--blocks N] [--shards N] [--faults FILE]
//            [--seed S] [--deadline DUR] [--jobs FILE] [--netrpc] [--fluid]
//            [--no-isolation] [--metrics-out FILE] [--trace-out FILE]
//
// Traffic mix tokens: "ip" (clean IPv4/UDP), "arp" (non-IP EtherType),
// "opts" (IPv4 with options, IHL=6). Counters named with --counter are
// read back from the Shared Memory System (as 16-byte Packet/Byte
// counters at the given 8-byte word address) after the run.
//
// --cluster RxW skips the microcode path and instead materializes an
// R-rack, W-workers-per-rack cluster (src/cluster/, docs/cluster.md),
// runs one Trio-ML allreduce through its two-level aggregation tree and
// reports per-tier statistics. Cluster mode is a front-end over the
// scenario runner (vigil::run_schedule, docs/vigil.md "The runner"), the
// same one trio-fuzz and bench/fig_chaos drive: the flags below fill in
// one vigil::Scenario, and the report printed is the runner's.
//
// --jobs FILE (cluster mode) loads a multi-tenant spec in the jobs DSL
// (docs/jobs.md): each `tenant <id> <allreduce|besteffort> [key=value...]`
// line becomes one tenant admitted by a jobs::JobManager, per-tenant
// fabric isolation (hash-table key partitions + MQSS weighted queues) is
// enabled unless --no-isolation is given, and every tenant runs
// concurrently. Malformed specs are rejected with the offending line and
// column, like --faults.
//
// --netrpc (cluster mode) admits one canned NetRPC tenant (id 4: sum
// policy, 3 replicas, hot-key cache — docs/netrpc.md) on top of whatever
// --jobs declared, so `trio-run --cluster 2x4 --netrpc` demos the
// in-network RPC path with zero spec files. NetRPC tenants — canned or
// from --jobs — get a per-tenant report: calls merged in-network,
// degraded completions, cache hit rate, PFE counter readbacks and the
// value digest.
//
// --fluid (cluster mode, with --jobs) demotes every eligible best-effort
// tenant (`fluid=1`, the default) to flow-level fluid modelling
// (docs/fluid.md): its per-host packet sources are replaced by rate-shared
// fluid streams that re-materialise as real frames inside --faults windows
// and recovery epochs. Reports transitions, fluid bytes and re-materialised
// frames after the run.
//
// --shards N (cluster mode) runs the cluster's discrete-event core on N
// OS threads — one shard per router domain, conservative lookahead
// windows (docs/performance.md). Results are bit-identical at every
// shard count. Default: hardware concurrency, capped by the router
// count. The one-shard rule lives in the runner (--jobs and --netrpc run
// on one shard), and --trace-out's tracer forces one shard in
// ClusterSpec.
//
// --faults FILE (cluster mode) loads a chaos schedule in the faults DSL
// (docs/faults.md), validates it (tenant= qualifiers must name tenants
// declared by --jobs/--netrpc; kill/revive and crash/restart windows must
// pair up without overlap), arms it on the cluster, hardens every
// worker's retransmit path with the runner's one policy, which trio-fuzz
// shares — 1 ms initial timeout, 6 retries backing off to 8 ms, and a
// 10 ms give-up grace so unreachable aggregation completes degraded
// instead of retrying forever — and enables straggler aging so injected
// faults recover. --deadline DUR (default 200ms) bounds the run, which
// stops as soon as every participant finished. Crashed workers are
// expected not to finish: the exit status only fails when a *surviving*
// worker misses the deadline.
//
// --seed S (cluster mode) makes a faulted run reproducible end to end:
// it seeds the injector's derived loss/corruption streams and every
// worker's retransmit jitter, so the same schedule + seed replays the
// same packet trace. After the run the cluster drains and the vigil
// invariant catalogue (docs/vigil.md) is checked, with the progress
// watchdog and, for a value-lossless faulted run, the golden digest
// against the same run fault-free — a tripped invariant prints the
// violations and fails the run.
//
// --metrics-out writes the telemetry registry as JSON; --trace-out writes
// a Chrome trace_event JSON timeline (chrome://tracing, Perfetto) with
// one row per PPE thread plus the hardware blocks (docs/telemetry.md).
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "jobs/fluid.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/tenant.hpp"
#include "microcode/compiler.hpp"
#include "microcode/error.hpp"
#include "microcode/interpreter.hpp"
#include "netrpc/app.hpp"
#include "telemetry/telemetry.hpp"
#include "trio/router.hpp"
#include "vigil/runner.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trio-run <program.tmc> [--packets N] "
               "[--mix ip,arp,opts] [--counter WORD_ADDR]... "
               "[--metrics-out FILE] [--trace-out FILE]\n"
               "       trio-run --cluster RxW [--blocks N] [--shards N] "
               "[--faults FILE] [--seed S] [--deadline DUR] "
               "[--jobs FILE] [--netrpc] [--fluid] [--no-isolation] "
               "[--metrics-out FILE] [--trace-out FILE]\n");
  return 2;
}

/// Adds the canned NetRPC demo tenant (id 4) unless `jobs` already
/// declares a netrpc tenant.
void add_netrpc_demo(jobs::JobsSpec& jobs) {
  for (const jobs::TenantSpec& t : jobs.tenants) {
    if (t.is_netrpc()) return;
  }
  jobs::TenantSpec rpc;
  rpc.id = 4;
  rpc.kind = jobs::TenantKind::kNetRpc;
  for (const jobs::TenantSpec& t : jobs.tenants) {
    if (t.id == rpc.id) {
      throw std::invalid_argument(
          "--netrpc wants tenant id 4 but --jobs already declares it");
    }
  }
  jobs.tenants.push_back(rpc);
}

void print_tenants(const vigil::Scenario& sc, vigil::Built& built) {
  jobs::JobManager& mgr = *built.jobs;
  const int workers = sc.cluster.total_workers();
  std::printf("%d-rack x %d-worker cluster, %zu tenant(s), isolation %s\n",
              sc.cluster.racks, sc.cluster.workers_per_rack,
              built.tenants.tenants.size(), sc.isolation ? "on" : "off");
  for (const jobs::TenantRun& tr : built.tenants.tenants) {
    const jobs::TenantSpec* ts = mgr.tenant_spec(tr.id);
    if (tr.kind == jobs::TenantKind::kAllreduce) {
      std::printf(
          "  tenant %u %s: %d/%d workers finished in %.2f us, "
          "digest %016llx\n",
          unsigned(tr.id), jobs::kind_name(tr.kind), tr.finished, workers,
          tr.duration_us(), static_cast<unsigned long long>(tr.digest()));
    } else if (tr.kind == jobs::TenantKind::kNetRpc) {
      const jobs::NetRpcRun& nr = tr.netrpc;
      std::printf(
          "  tenant %u %s: %d/%d clients finished in %.2f us, "
          "digest %016llx\n",
          unsigned(tr.id), jobs::kind_name(tr.kind), tr.finished,
          ts != nullptr ? int(ts->rpc_clients) : tr.finished,
          tr.duration_us(), static_cast<unsigned long long>(tr.digest()));
      std::printf(
          "    calls %llu (%llu degraded), gets %llu (%llu cached, "
          "%.0f%% hit), puts %llu\n",
          static_cast<unsigned long long>(nr.calls),
          static_cast<unsigned long long>(nr.degraded),
          static_cast<unsigned long long>(nr.gets),
          static_cast<unsigned long long>(nr.cached_gets),
          nr.gets > 0 ? 100.0 * double(nr.cached_gets) / double(nr.gets)
                      : 0.0,
          static_cast<unsigned long long>(nr.puts));
      if (nr.call_latency_us.count() > 0) {
        sim::Samples lat = nr.call_latency_us;  // percentile() sorts
        std::printf("    call latency: p50 %.2f us, p99 %.2f us\n",
                    lat.percentile(50), lat.percentile(99));
      }
      if (nr.get_hit_latency_us.count() > 0 &&
          nr.get_miss_latency_us.count() > 0) {
        std::printf("    GET latency: cache hit %.2f us vs miss %.2f us\n",
                    nr.get_hit_latency_us.mean(),
                    nr.get_miss_latency_us.mean());
      }
      if (netrpc::NetRpcApp* app = mgr.netrpc_app()) {
        const auto ctr = [&](auto which) {
          return static_cast<unsigned long long>(
              app->counter_packets(tr.id, which));
        };
        std::printf(
            "    PFE counters: merged %llu, completed %llu, hit %llu, "
            "miss %llu, fill %llu, invalidate %llu, degraded %llu\n",
            ctr(netrpc::kCtrMerged), ctr(netrpc::kCtrCompleted),
            ctr(netrpc::kCtrCacheHit), ctr(netrpc::kCtrCacheMiss),
            ctr(netrpc::kCtrCacheFill), ctr(netrpc::kCtrInvalidate),
            ctr(netrpc::kCtrDegraded));
      }
    } else {
      std::printf("  tenant %u %s: load %.2f background traffic\n",
                  unsigned(tr.id), jobs::kind_name(tr.kind),
                  ts != nullptr ? ts->load : 0.0);
    }
  }
  if (const jobs::FluidController* fluidc = built.fluid.get()) {
    std::printf(
        "  fluid: %zu stream(s), %llu fluid bytes, %llu re-materialised "
        "frame(s), %llu transition(s), %llu fault window(s)\n",
        fluidc->num_streams(),
        static_cast<unsigned long long>(fluidc->fluid_bytes()),
        static_cast<unsigned long long>(fluidc->packet_frames()),
        static_cast<unsigned long long>(fluidc->transitions()),
        static_cast<unsigned long long>(fluidc->windows_observed()));
  }
  if (!sc.schedule.empty()) {
    std::printf("  faults: %llu injected, fault log digest %016llx\n",
                static_cast<unsigned long long>(
                    built.injector->faults_injected()),
                static_cast<unsigned long long>(built.injector->digest()));
  }
}

void print_allreduce(const vigil::Scenario& sc, const vigil::RunReport& report,
                     vigil::Built& built) {
  cluster::Cluster& cl = *built.cluster;
  const cluster::AllreduceRun& run = built.allreduce;
  const int workers = sc.cluster.total_workers();
  std::printf("%d-rack x %d-worker cluster, %zu gradients/worker\n",
              sc.cluster.racks, sc.cluster.workers_per_rack,
              std::size_t(sc.blocks) * sc.cluster.grads_per_packet);
  std::printf("  finished workers: %d/%d in %s simulated time\n",
              run.finished, workers, report.finish.to_string().c_str());
  std::printf("  allreduce: %.2f us, %.2f Gbps aggregate goodput\n",
              run.duration_us(), run.goodput_gbps());
  for (int r = 0; r < sc.cluster.racks; ++r) {
    std::printf("  rack%d: leaf blocks %llu, uplink frames %llu\n", r,
                static_cast<unsigned long long>(
                    cl.leaf_app(r).stats().blocks_completed),
                static_cast<unsigned long long>(
                    cl.fabric_link(r).a_to_b().frames_sent()));
  }
  std::printf("  spine: blocks %llu\n",
              static_cast<unsigned long long>(
                  cl.spine_app().stats().blocks_completed));
  if (sc.schedule.empty()) return;
  std::uint64_t exhausted = 0;
  for (int w = 0; w < workers; ++w) {
    exhausted += cl.worker(w).retry_budget_exhausted();
  }
  std::printf(
      "  faults: %llu injected, %llu recoveries, %d crashed worker(s)\n",
      static_cast<unsigned long long>(built.injector->faults_injected()),
      static_cast<unsigned long long>(built.injector->recoveries()),
      report.crashed);
  std::printf("  recovery: %llu retransmits, %llu budgets exhausted\n",
              static_cast<unsigned long long>(report.retransmissions),
              static_cast<unsigned long long>(exhausted));
  std::printf("  fault log digest: %016llx\n",
              static_cast<unsigned long long>(built.injector->digest()));
}

int run_cluster(const std::string& topo, int blocks, int shards,
                const std::string& faults_path, std::uint64_t seed,
                const std::string& deadline_s, const std::string& jobs_path,
                bool netrpc_demo, bool fluid, bool isolation,
                const std::string& metrics_out,
                const std::string& trace_out) {
  const std::size_t x = topo.find('x');
  const int racks = x == std::string::npos ? 0 : std::atoi(topo.c_str());
  const int wpr =
      x == std::string::npos ? 0 : std::atoi(topo.c_str() + x + 1);
  if (racks <= 0 || wpr <= 0 || blocks <= 0) return usage();
  if (fluid && jobs_path.empty()) {
    std::fprintf(stderr,
                 "trio-run: --fluid needs --jobs (only best-effort tenants "
                 "are demotable, docs/fluid.md)\n");
    return 1;
  }

  telemetry::Telemetry telem(!metrics_out.empty(), !trace_out.empty());
  vigil::Scenario sc;
  sc.cluster.racks = racks;
  sc.cluster.workers_per_rack = wpr;
  if (shards <= 0) {
    // Auto: one shard per hardware thread, capped by the router count
    // inside Cluster::effective_shards.
    const unsigned hw = std::thread::hardware_concurrency();
    shards = hw > 0 ? int(hw) : 1;
  }
  sc.cluster.shards = shards;
  if (telem.metrics.enabled() || telem.tracer.enabled()) {
    sc.cluster.telemetry = &telem;
  }
  sc.blocks = blocks;
  sc.isolation = isolation;
  sc.fluid = fluid;
  sc.seed = seed;
  vigil::Built built;
  vigil::RunReport report;
  try {
    if (!jobs_path.empty()) sc.jobs = jobs::JobsSpec::load(jobs_path);
    if (netrpc_demo) add_netrpc_demo(sc.jobs);
    if (!faults_path.empty()) {
      sc.schedule = faults::FaultSchedule::load(faults_path);
      // Validate against the declared tenants: a `tenant=` qualifier
      // naming an unknown tenant, or kill/revive / crash/restart windows
      // that overlap or fail to pair, is a spec error worth rejecting at
      // startup rather than a silently inert (or doubly applied) fault.
      std::vector<int> declared;
      for (const jobs::TenantSpec& t : sc.jobs.tenants) {
        declared.push_back(int(t.id));
      }
      sc.schedule.validate(&declared);
      sc.hardening = vigil::Hardening{};
      sc.hardening->seed_jitter = true;
    }
    if (!deadline_s.empty()) {
      sc.deadline = sim::Time() + faults::parse_duration(deadline_s);
    }
    report = vigil::run_schedule(sc, &built);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trio-run: %s\n", e.what());
    return 1;
  }

  if (built.jobs) {
    print_tenants(sc, built);
  } else {
    print_allreduce(sc, report, built);
  }
  if (!sc.schedule.empty()) {
    for (const auto& entry : built.injector->log()) {
      std::printf("    [%s] %s\n", entry.at.to_string().c_str(),
                  entry.what.c_str());
    }
  }
  if (!metrics_out.empty()) {
    if (!telem.metrics.write_json_file(metrics_out,
                                       built.cluster->simulator().now())) {
      std::fprintf(stderr, "trio-run: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("  metrics: %s (%zu metrics)\n", metrics_out.c_str(),
                telem.metrics.metric_count());
  }
  if (!trace_out.empty()) {
    if (!telem.tracer.write_json_file(trace_out)) {
      std::fprintf(stderr, "trio-run: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  trace: %s (%zu events)\n", trace_out.c_str(),
                telem.tracer.event_count());
  }
  for (const vigil::Violation& v : report.violations) {
    std::printf("  invariant %s tripped at %s: %s\n", v.invariant.c_str(),
                v.at.to_string().c_str(), v.detail.c_str());
  }
  // Crashed participants are expected casualties; every survivor must
  // have finished, and the runner's invariants must hold.
  return report.ok() ? 0 : 1;
}

net::Buffer make_frame(const std::string& kind) {
  std::vector<std::uint8_t> payload(100, 0x42);
  auto frame = net::build_udp_frame(
      {0x02, 0, 0, 0, 0, 1}, {0x02, 0, 0, 0, 0, 2},
      net::Ipv4Addr::from_string("192.0.2.1"),
      net::Ipv4Addr::from_string("198.51.100.1"), 4000, 4001, payload);
  if (kind == "arp") {
    frame.set_u16(12, 0x0806);
  } else if (kind == "opts") {
    frame.set_u8(net::UdpFrameLayout::kIpOff, 4 << 4 | 6);
  }
  return frame;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string cluster_topo;
  std::string faults_path;
  std::string deadline_s;
  std::string jobs_path;
  bool netrpc_demo = false;
  bool fluid = false;
  bool isolation = true;
  int blocks = 8;
  int shards = 0;  // 0 = auto (hardware concurrency, capped by routers)
  std::uint64_t seed = 0;
  int packets = 1000;
  std::vector<std::string> mix = {"ip", "arp", "opts"};
  std::vector<std::uint64_t> counters;
  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--packets" && i + 1 < argc) {
      packets = std::atoi(argv[++i]);
    } else if (arg == "--cluster" && i + 1 < argc) {
      cluster_topo = argv[++i];
    } else if (arg.rfind("--cluster=", 0) == 0) {
      cluster_topo = arg.substr(std::string("--cluster=").size());
    } else if (arg == "--blocks" && i + 1 < argc) {
      blocks = std::atoi(argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.c_str() + std::string("--shards=").size());
    } else if (arg == "--faults" && i + 1 < argc) {
      faults_path = argv[++i];
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_path = arg.substr(std::string("--faults=").size());
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + std::string("--seed=").size(),
                           nullptr, 0);
    } else if (arg == "--deadline" && i + 1 < argc) {
      deadline_s = argv[++i];
    } else if (arg.rfind("--deadline=", 0) == 0) {
      deadline_s = arg.substr(std::string("--deadline=").size());
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs_path = argv[++i];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs_path = arg.substr(std::string("--jobs=").size());
    } else if (arg == "--netrpc") {
      netrpc_demo = true;
    } else if (arg == "--fluid") {
      fluid = true;
    } else if (arg == "--no-isolation") {
      isolation = false;
    } else if (arg == "--mix" && i + 1 < argc) {
      mix.clear();
      std::stringstream ss(argv[++i]);
      std::string tok;
      while (std::getline(ss, tok, ',')) mix.push_back(tok);
    } else if (arg == "--counter" && i + 1 < argc) {
      counters.push_back(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::string("--metrics-out=").size());
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (!cluster_topo.empty()) {
    return run_cluster(cluster_topo, blocks, shards, faults_path, seed,
                       deadline_s, jobs_path, netrpc_demo, fluid, isolation,
                       metrics_out, trace_out);
  }
  if (path.empty() || packets <= 0 || mix.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trio-run: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream src;
  src << in.rdbuf();

  std::shared_ptr<const microcode::CompiledProgram> program;
  try {
    program = microcode::compile(src.str());
  } catch (const microcode::CompileError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }

  sim::Simulator sim;
  telemetry::Telemetry telem(!metrics_out.empty(), !trace_out.empty());
  trio::Router router(sim, trio::Calibration{}, 1, 4, telem);
  // Nexthop 0: out of port 1 (programs Forward(0) to use it).
  router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  std::uint64_t forwarded = 0;
  router.attach_port_sink(1, [&](net::PacketPtr) { ++forwarded; });
  router.pfe(0).set_program_factory(microcode::make_program_factory(program));

  for (int i = 0; i < packets; ++i) {
    router.receive(
        net::Packet::make(make_frame(mix[static_cast<std::size_t>(i) %
                                         mix.size()])),
        0);
  }
  sim.run();

  std::printf("ran %d packets through %s in %s simulated time\n", packets,
              path.c_str(), sim.now().to_string().c_str());
  std::printf("  forwarded:        %llu\n",
              static_cast<unsigned long long>(forwarded));
  std::printf("  consumed/dropped: %llu\n",
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(packets) - forwarded));
  std::printf("  PPE instructions: %llu (%.1f per packet)\n",
              static_cast<unsigned long long>(
                  router.pfe(0).instructions_issued()),
              static_cast<double>(router.pfe(0).instructions_issued()) /
                  packets);
  for (std::uint64_t word : counters) {
    auto& sms = router.pfe(0).sms();
    std::printf("  counter @%llu: %llu packets, %llu bytes\n",
                static_cast<unsigned long long>(word),
                static_cast<unsigned long long>(sms.peek_u64(word * 8)),
                static_cast<unsigned long long>(sms.peek_u64(word * 8 + 8)));
  }
  if (!metrics_out.empty()) {
    if (!telem.metrics.write_json_file(metrics_out, sim.now())) {
      std::fprintf(stderr, "trio-run: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("  metrics: %s (%zu metrics)\n", metrics_out.c_str(),
                telem.metrics.metric_count());
  }
  if (!trace_out.empty()) {
    if (!telem.tracer.write_json_file(trace_out)) {
      std::fprintf(stderr, "trio-run: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  trace: %s (%zu events)\n", trace_out.c_str(),
                telem.tracer.event_count());
  }
  return 0;
}
