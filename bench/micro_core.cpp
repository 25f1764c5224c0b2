// Event-core microbenchmarks: how fast the simulator host runs, measured
// directly on the kernel hot paths this repo's every figure depends on
// (docs/performance.md).
//
//   core_schedule_run   steady-state schedule+run with a link-sized
//                       (40-byte) capture — the simulator's common case
//   core_cancel         schedule, truly cancel, reschedule — the timer-
//                       thread / retransmit-timer pattern
//   core_packet_churn   build_udp_frame + Packet::make + drop, recycling
//                       frames and packet cells through the pools
//   fig15_e2e           end-to-end fig15-style aggregation run: wall
//                       clock, simulated events, and host events/sec
//   cluster_pps         4x8 cluster allreduce at --shards 1 and at the
//                       hardware shard count: packets per wall-clock
//                       second, the headline the parallel engine moves
//
// Emits BENCH_core.json via --json-out=<file> so the perf trajectory of
// the event core is recorded per PR (the CI bench smoke job uploads it).
//
// Usage: micro_core [--quick] [--json-out=BENCH_core.json]
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "trioml/testbed.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A capture the size of the link-delivery closure (this + peer + port +
/// PacketPtr ~= 40 bytes): big enough that std::function would have heap-
/// allocated it, small enough to fit the inline-callback budget.
struct LinkSizedWork {
  std::uint64_t* sink;
  void* peer;
  int port;
  std::uint64_t a, b, c;
  void operator()() const { *sink += a + b + c + std::uint64_t(port); }
};

double bench_schedule_run(std::uint64_t events) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  // Warm the queue's slot table and heap so the measurement sees the
  // steady state, not vector growth.
  constexpr int kBatch = 1024;
  for (int i = 0; i < kBatch; ++i) {
    sim.schedule_in(sim::Duration(i % 17), work);
  }
  sim.run();
  const auto start = Clock::now();
  std::uint64_t done = 0;
  while (done < events) {
    for (int i = 0; i < kBatch; ++i) {
      sim.schedule_in(sim::Duration(i % 17), work);
    }
    sim.run();
    done += kBatch;
  }
  const double secs = seconds_since(start);
  benchutil::row({"core_schedule_run", benchutil::fmt(done / secs / 1e6, 2),
                  benchutil::fmt(secs * 1e3, 1)});
  return done / secs;
}

double bench_cancel(std::uint64_t events) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 5, 4, 5, 6};
  constexpr int kBatch = 1024;
  std::vector<sim::EventId> ids(kBatch);
  const auto start = Clock::now();
  std::uint64_t done = 0;
  while (done < events) {
    // The timer-wheel/retransmit pattern: arm a sweep of timers, cancel
    // every one before it fires, re-arm half at a later deadline, drain.
    for (int i = 0; i < kBatch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule_in(sim::Duration(1000 + i % 13), work);
    }
    for (int i = 0; i < kBatch; ++i) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < kBatch / 2; ++i) {
      sim.schedule_in(sim::Duration(i % 7), work);
    }
    sim.run();
    done += kBatch;
  }
  const double secs = seconds_since(start);
  benchutil::row({"core_cancel", benchutil::fmt(done / secs / 1e6, 2),
                  benchutil::fmt(secs * 1e3, 1)});
  return done / secs;
}

double bench_packet_churn(std::uint64_t packets) {
  const std::vector<std::uint8_t> payload(1024, 0xab);
  const net::MacAddr src{1, 1, 1, 1, 1, 1};
  const net::MacAddr dst{2, 2, 2, 2, 2, 2};
  const auto ip_src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  const auto ip_dst = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  // Warm the pools.
  for (int i = 0; i < 64; ++i) {
    auto p = net::Packet::make(
        net::build_udp_frame(src, dst, ip_src, ip_dst, 1, 2, payload));
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < packets; ++i) {
    auto p = net::Packet::make(
        net::build_udp_frame(src, dst, ip_src, ip_dst, 1, 2, payload));
    // p drops here: the frame storage and the shared_ptr cell go back to
    // the thread's pools for the next iteration.
  }
  const double secs = seconds_since(start);
  benchutil::row({"core_packet_churn", benchutil::fmt(packets / secs / 1e6, 2),
                  benchutil::fmt(secs * 1e3, 1)});
  return packets / secs;
}

struct E2eResult {
  double wall_ms = 0;
  double events_per_sec = 0;
  std::uint64_t events = 0;
};

E2eResult bench_fig15_e2e(int blocks) {
  // The fig15 sweep: 4 workers, window 1, packet-level simulation on one
  // PFE, gradients/packet from 64 to 1024 — the same scenario the figure
  // bench reproduces, timed host-side.
  E2eResult r;
  const auto start = Clock::now();
  for (int grads_per_packet : {64, 128, 256, 512, 1024}) {
    trioml::TestbedConfig cfg;
    cfg.num_workers = 4;
    cfg.grads_per_packet = static_cast<std::uint16_t>(grads_per_packet);
    cfg.window = 1;
    trioml::Testbed tb(cfg);
    int done = 0;
    for (int w = 0; w < 4; ++w) {
      std::vector<std::uint32_t> g(
          static_cast<std::size_t>(grads_per_packet) * blocks, 1);
      tb.worker(w).start_allreduce(std::move(g), 1,
                                   [&](trioml::AllreduceResult) { ++done; });
    }
    tb.simulator().run();
    r.events += tb.simulator().events_executed();
    if (done != 4) std::printf("  WARNING: %d/4 workers finished\n", done);
  }
  const double secs = seconds_since(start);
  r.wall_ms = secs * 1e3;
  r.events_per_sec = static_cast<double>(r.events) / secs;
  benchutil::row({"fig15_e2e", benchutil::fmt(r.events_per_sec / 1e6, 2),
                  benchutil::fmt(r.wall_ms, 1)});
  return r;
}

struct ClusterPpsResult {
  double wall_ms = 0;
  double packets_per_sec = 0;
  double events_per_sec = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  int shards = 0;  // Cluster::num_shards()
};

ClusterPpsResult bench_cluster_pps(int blocks, int shards) {
  // A 4x8 cluster allreduce — the packets-per-wall-clock-second headline
  // for the parallel engine. `packets` counts every frame the simulation
  // pushed through a link (host uplinks/downlinks + fabric trunks), so
  // the metric survives event-granularity refactors.
  cluster::ClusterSpec spec;
  spec.racks = 4;
  spec.workers_per_rack = 8;
  spec.grads_per_packet = 1024;
  spec.fabric_link.gbps = 400;
  spec.fabric_link.latency = sim::Duration::micros(2);
  spec.shards = shards;
  cluster::Cluster cl(spec);
  const auto grads = cluster::patterned_gradients(
      spec.total_workers(), std::size_t(blocks) * spec.grads_per_packet);

  ClusterPpsResult r;
  r.shards = cl.num_shards();
  const auto start = Clock::now();
  const cluster::AllreduceRun run = cluster::run_allreduce(cl, grads);
  const double secs = seconds_since(start);
  if (run.finished != spec.total_workers()) {
    std::printf("  WARNING: %d/%d workers finished\n", run.finished,
                spec.total_workers());
  }
  for (int r2 = 0; r2 < spec.racks; ++r2) {
    r.packets += cl.fabric_link(r2).a_to_b().frames_sent() +
                 cl.fabric_link(r2).b_to_a().frames_sent();
  }
  for (int w = 0; w < spec.total_workers(); ++w) {
    r.packets += cl.link(w).a_to_b().frames_sent() +
                 cl.link(w).b_to_a().frames_sent();
  }
  r.events = cl.engine().events_executed();
  r.wall_ms = secs * 1e3;
  r.packets_per_sec = secs <= 0 ? 0 : double(r.packets) / secs;
  r.events_per_sec = secs <= 0 ? 0 : double(r.events) / secs;
  benchutil::row({"cluster_pps(s=" + std::to_string(r.shards) + ")",
                  benchutil::fmt(r.packets_per_sec / 1e6, 2),
                  benchutil::fmt(r.wall_ms, 1)});
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::string json_out = benchutil::parse_json_out_flag(argc, argv);

  benchutil::banner("Event-core microbenchmarks",
                    "simulator-host throughput (docs/performance.md)");
  benchutil::row({"benchmark", "Mitems/s", "wall(ms)"});

  const std::uint64_t n = quick ? 400'000 : 4'000'000;
  const double sched = bench_schedule_run(n);
  const double cancel = bench_cancel(n);
  const double packet = bench_packet_churn(quick ? 200'000 : 2'000'000);
  const E2eResult e2e = bench_fig15_e2e(quick ? 100 : 500);
  const int cluster_blocks = quick ? 8 : 32;
  const unsigned hw = std::thread::hardware_concurrency();
  const ClusterPpsResult pps1 = bench_cluster_pps(cluster_blocks, 1);
  const ClusterPpsResult ppsN =
      bench_cluster_pps(cluster_blocks, hw > 0 ? int(hw) : 1);

  if (!json_out.empty()) {
    benchutil::JsonSeries series;
    series.string("metric", "core_schedule_run")
        .number("items_per_sec", sched)
        .end_row();
    series.string("metric", "core_cancel")
        .number("items_per_sec", cancel)
        .end_row();
    series.string("metric", "core_packet_churn")
        .number("items_per_sec", packet)
        .end_row();
    series.string("metric", "fig15_e2e");
    benchutil::perf_fields(series, e2e.wall_ms, e2e.events).end_row();
    for (const ClusterPpsResult* r : {&pps1, &ppsN}) {
      series.string("metric", "cluster_pps")
          .number("shards", std::uint64_t(r->shards));
      benchutil::perf_fields(series, r->wall_ms, r->events)
          .number("packets", r->packets)
          .number("packets_per_sec", r->packets_per_sec)
          .end_row();
    }
    if (series.write_file(json_out)) {
      std::printf("\nwrote %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
  }
  return 0;
}
