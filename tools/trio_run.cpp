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
// fluid streams that re-materialise as real frames inside --faults windows.
// Reports transitions, fluid bytes and re-materialised frames after the
// run.
//
// --shards N (cluster mode) runs the cluster's discrete-event core on N
// OS threads — one shard per router domain, conservative lookahead
// windows (docs/performance.md). Results and traces are bit-identical at
// every shard count, for every feature. Default: hardware concurrency,
// capped by the router count. The first line of the report says how many
// shards ran.
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
//
// Every flag takes its value as `--flag V` or `--flag=V`, and every number
// goes through the DSLs' checked readers (dsl/lexer.hpp): a malformed or
// out-of-range value prints usage and exits 2.
#include <climits>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "dsl/lexer.hpp"
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

/// Everything the flags set. Cluster mode when `racks` > 0.
struct Options {
  std::string path;  // the microcode program
  int packets = 1000;
  std::vector<std::string> mix = {"ip", "arp", "opts"};
  std::vector<std::uint64_t> counters;
  int racks = 0;
  int workers_per_rack = 0;
  int blocks = 8;
  int shards = 0;  // 0 = auto (hardware concurrency, capped by routers)
  std::string faults_path;
  std::uint64_t seed = 0;
  std::optional<sim::Duration> deadline;
  std::string jobs_path;
  bool netrpc_demo = false;
  bool fluid = false;
  bool isolation = true;
  std::string metrics_out;
  std::string trace_out;
};

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

/// Writes whichever telemetry files were requested and reports them.
/// False, after printing the error, when a file cannot be written.
bool write_outputs(const telemetry::Telemetry& telem, const Options& o,
                   sim::Time now) {
  if (!o.metrics_out.empty()) {
    if (!telem.metrics.write_json_file(o.metrics_out, now)) {
      std::fprintf(stderr, "trio-run: cannot write %s\n",
                   o.metrics_out.c_str());
      return false;
    }
    std::printf("  metrics: %s (%zu metrics)\n", o.metrics_out.c_str(),
                telem.metrics.metric_count());
  }
  if (!o.trace_out.empty()) {
    if (!telem.tracer.write_json_file(o.trace_out)) {
      std::fprintf(stderr, "trio-run: cannot write %s\n", o.trace_out.c_str());
      return false;
    }
    std::printf("  trace: %s (%zu events)\n", o.trace_out.c_str(),
                telem.tracer.event_count());
    // Past the cap, thread timing decides which events were kept at more
    // than one shard; the count dropped does not depend on it.
    if (const std::uint64_t dropped = telem.tracer.dropped_events()) {
      std::printf("  trace: %llu events dropped at the event cap\n",
                  static_cast<unsigned long long>(dropped));
    }
  }
  return true;
}

void print_tenants(const vigil::Scenario& sc, vigil::Built& built) {
  jobs::JobManager& mgr = *built.jobs;
  const int workers = sc.cluster.total_workers();
  std::printf(
      "%d-rack x %d-worker cluster, %d shard(s), %zu tenant(s), "
      "isolation %s\n",
      sc.cluster.racks, sc.cluster.workers_per_rack,
      built.cluster->num_shards(), built.tenants.tenants.size(),
      sc.isolation ? "on" : "off");
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
  std::printf(
      "%d-rack x %d-worker cluster, %d shard(s), %zu gradients/worker\n",
      sc.cluster.racks, sc.cluster.workers_per_rack, cl.num_shards(),
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

int run_cluster(const Options& o) {
  if (o.fluid && o.jobs_path.empty()) {
    std::fprintf(stderr,
                 "trio-run: --fluid needs --jobs (only best-effort tenants "
                 "are demotable, docs/fluid.md)\n");
    return 1;
  }

  telemetry::Telemetry telem(!o.metrics_out.empty(), !o.trace_out.empty());
  vigil::Scenario sc;
  sc.cluster.racks = o.racks;
  sc.cluster.workers_per_rack = o.workers_per_rack;
  // Auto: one shard per hardware thread, capped by the router count inside
  // the engine.
  const unsigned hw = std::thread::hardware_concurrency();
  sc.cluster.shards = o.shards > 0 ? o.shards : hw > 0 ? int(hw) : 1;
  if (telem.metrics.enabled() || telem.tracer.enabled()) {
    sc.cluster.telemetry = &telem;
  }
  sc.blocks = o.blocks;
  sc.isolation = o.isolation;
  sc.fluid = o.fluid;
  sc.seed = o.seed;
  if (o.deadline) sc.deadline = sim::Time() + *o.deadline;
  vigil::Built built;
  vigil::RunReport report;
  try {
    if (!o.jobs_path.empty()) sc.jobs = jobs::JobsSpec::load(o.jobs_path);
    if (o.netrpc_demo) add_netrpc_demo(sc.jobs);
    if (!o.faults_path.empty()) {
      sc.schedule = faults::FaultSchedule::load(o.faults_path);
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
  if (!write_outputs(telem, o, built.cluster->simulator().now())) {
    return 1;
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
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // The value of `--flag V` or `--flag=V`; null when `arg` is not it.
      const auto value = [&](const char* flag) -> const char* {
        const std::string eq = std::string(flag) + "=";
        if (arg.rfind(eq, 0) == 0) return arg.c_str() + eq.size();
        if (arg == flag && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      const auto count = [](std::string_view v, int lo, const char* what) {
        return static_cast<int>(dsl::read_integer(v, lo, INT_MAX, what));
      };
      if (const char* v = value("--packets")) {
        o.packets = count(v, 1, "--packets");
      } else if (const char* v = value("--cluster")) {
        const std::string_view topo = v;
        const std::size_t x = topo.find('x');
        if (x == std::string_view::npos) {
          throw std::invalid_argument("--cluster wants RxW, got " +
                                      std::string(topo));
        }
        o.racks = count(topo.substr(0, x), 1, "--cluster racks");
        o.workers_per_rack = count(topo.substr(x + 1), 1, "--cluster workers");
      } else if (const char* v = value("--blocks")) {
        o.blocks = count(v, 1, "--blocks");
      } else if (const char* v = value("--shards")) {
        o.shards = count(v, 0, "--shards");
      } else if (const char* v = value("--faults")) {
        o.faults_path = v;
      } else if (const char* v = value("--seed")) {
        o.seed = dsl::read_integer(v, 0, UINT64_MAX, "--seed", 0);
      } else if (const char* v = value("--deadline")) {
        o.deadline = dsl::parse_duration(v);
      } else if (const char* v = value("--jobs")) {
        o.jobs_path = v;
      } else if (arg == "--netrpc") {
        o.netrpc_demo = true;
      } else if (arg == "--fluid") {
        o.fluid = true;
      } else if (arg == "--no-isolation") {
        o.isolation = false;
      } else if (const char* v = value("--mix")) {
        o.mix.clear();
        std::stringstream ss(v);
        std::string tok;
        while (std::getline(ss, tok, ',')) o.mix.push_back(tok);
      } else if (const char* v = value("--counter")) {
        // A 16-byte counter pair inside the router's SMS address space.
        const trio::Calibration cal;
        const std::uint64_t last = (cal.sram_bytes + cal.dram_bytes) / 8 - 2;
        o.counters.push_back(dsl::read_integer(v, 0, last, "--counter", 0));
      } else if (const char* v = value("--metrics-out")) {
        o.metrics_out = v;
      } else if (const char* v = value("--trace-out")) {
        o.trace_out = v;
      } else if (!arg.empty() && arg[0] == '-') {
        return usage();
      } else {
        o.path = arg;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "trio-run: %s\n", e.what());
    return usage();
  }
  if (o.racks > 0) return run_cluster(o);
  if (o.path.empty() || o.mix.empty()) return usage();
  const std::string& path = o.path;

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
  telemetry::Telemetry telem(!o.metrics_out.empty(), !o.trace_out.empty());
  trio::Router router(sim, trio::Calibration{}, 1, 4, telem);
  // Nexthop 0: out of port 1 (programs Forward(0) to use it).
  router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  std::uint64_t forwarded = 0;
  router.attach_port_sink(1, [&](net::PacketPtr) { ++forwarded; });
  router.pfe(0).set_program_factory(microcode::make_program_factory(program));

  for (int i = 0; i < o.packets; ++i) {
    router.receive(
        net::Packet::make(make_frame(o.mix[static_cast<std::size_t>(i) %
                                           o.mix.size()])),
        0);
  }
  sim.run();

  std::printf("ran %d packets through %s in %s simulated time\n", o.packets,
              path.c_str(), sim.now().to_string().c_str());
  std::printf("  forwarded:        %llu\n",
              static_cast<unsigned long long>(forwarded));
  std::printf("  consumed/dropped: %llu\n",
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(o.packets) - forwarded));
  std::printf("  PPE instructions: %llu (%.1f per packet)\n",
              static_cast<unsigned long long>(
                  router.pfe(0).instructions_issued()),
              static_cast<double>(router.pfe(0).instructions_issued()) /
                  o.packets);
  for (std::uint64_t word : o.counters) {
    auto& sms = router.pfe(0).sms();
    std::printf("  counter @%llu: %llu packets, %llu bytes\n",
                static_cast<unsigned long long>(word),
                static_cast<unsigned long long>(sms.peek_u64(word * 8)),
                static_cast<unsigned long long>(sms.peek_u64(word * 8 + 8)));
  }
  return write_outputs(telem, o, sim.now()) ? 0 : 1;
}
