// Scale-out extension of the paper's §4 cross-device aggregation: sweep
// declarative multi-rack clusters (racks x workers-per-rack) through a
// full allreduce over the two-level aggregation tree and report
// throughput and latency per topology. Every topology's results are
// checked bit-for-bit against a flat single-router Testbed aggregating
// the same worker gradients — the tree changes where addition happens,
// never what it produces.
//
// A second sweep holds the largest topology fixed and varies --shards:
// the parallel discrete-event engine (sim/shard.hpp) runs the same 8x8
// allreduce on 1, 2, 4 and 8 OS threads. The result digest must be
// bit-identical at every shard count (hard failure otherwise — that is
// the engine's determinism contract, docs/performance.md), and the JSON
// records the wall-clock speedup curve for multi-core CI.
//
//   fig17_scaleout [--json-out=<file>] [--metrics-out=<json>]
//                  [--trace-out=<json>]
//
// Telemetry flags apply to the largest topology in the sweep.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "sim/digest.hpp"

namespace {

struct Topology {
  int racks;
  int workers_per_rack;
};

constexpr std::size_t kBlocks = 32;
constexpr std::uint16_t kGradsPerPacket = 1024;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count() * 1e3;
}

/// Every worker's result gradients plus the completion count and final
/// simulated clock — the fingerprint the shard sweep compares.
std::uint64_t results_digest(const cluster::AllreduceRun& run,
                             sim::Time final_now) {
  sim::Digest d;
  d.u64(std::uint64_t(run.finished))
      .u64(std::uint64_t(run.finish.ns()))
      .u64(std::uint64_t(final_now.ns()));
  for (const trioml::AllreduceResult& r : run.results) {
    d.u64(r.grads.size());
    for (float g : r.grads) {
      std::uint32_t bits;
      __builtin_memcpy(&bits, &g, sizeof bits);
      d.u64(bits);
    }
  }
  return d.value();
}

cluster::ClusterSpec make_spec(const Topology& topo, int shards) {
  cluster::ClusterSpec spec;
  spec.racks = topo.racks;
  spec.workers_per_rack = topo.workers_per_rack;
  spec.grads_per_packet = kGradsPerPacket;
  spec.fabric_link.gbps = 400;  // spine trunks are faster than host links
  spec.fabric_link.latency = sim::Duration::micros(2);
  spec.shards = shards;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const auto telem_opts = benchutil::parse_telemetry_flags(argc, argv);
  const std::string json_out = benchutil::parse_json_out_flag(argc, argv);

  benchutil::banner(
      "Fig 17 (extension): multi-rack scale-out",
      "paper SS4 cross-device hierarchical aggregation, scaled to N racks");

  const std::vector<Topology> sweep = {
      {1, 4}, {2, 4}, {2, 8}, {4, 4}, {4, 8}, {8, 8},
  };

  benchutil::row({"racks", "wkr/rack", "workers", "time_us", "agg_gbps",
                  "per_wkr_gbps", "wall_ms", "Mev/s", "identical"},
                 /*width=*/12);
  benchutil::JsonSeries series;
  telemetry::Telemetry telem(telem_opts.metrics_enabled(),
                             telem_opts.trace_enabled());

  for (std::size_t t = 0; t < sweep.size(); ++t) {
    const Topology& topo = sweep[t];
    const bool last = t + 1 == sweep.size();

    cluster::ClusterSpec spec = make_spec(topo, /*shards=*/1);
    if (last && telem_opts.any()) spec.telemetry = &telem;

    const auto grads = cluster::patterned_gradients(
        spec.total_workers(), kBlocks * kGradsPerPacket);

    cluster::Cluster cl(spec);
    cl.sample_trace_counters();
    const auto wall_start = Clock::now();
    const cluster::AllreduceRun run = cluster::run_allreduce(cl, grads);
    const double wall_ms = ms_since(wall_start);
    cl.sample_trace_counters();
    const std::uint64_t events = cl.engine().events_executed();
    const double events_per_sec =
        wall_ms <= 0 ? 0 : double(events) / (wall_ms / 1e3);

    const bool identical =
        run.finished == spec.total_workers() &&
        cluster::bit_identical(run.results,
                               cluster::testbed_baseline(spec, grads));
    const double per_worker_gbps =
        run.duration_us() <= 0
            ? 0
            : double(grads[0].size() * 4) * 8.0 / (run.duration_us() * 1e3);

    std::uint64_t uplink_frames = 0;
    for (int r = 0; r < spec.racks; ++r) {
      uplink_frames += cl.fabric_link(r).a_to_b().frames_sent();
    }

    benchutil::row({std::to_string(topo.racks),
                    std::to_string(topo.workers_per_rack),
                    std::to_string(spec.total_workers()),
                    benchutil::fmt(run.duration_us()),
                    benchutil::fmt(run.goodput_gbps()),
                    benchutil::fmt(per_worker_gbps),
                    benchutil::fmt(wall_ms, 1),
                    benchutil::fmt(events_per_sec / 1e6, 2),
                    identical ? "yes" : "NO"},
                   /*width=*/12);

    series.number("racks", std::uint64_t(topo.racks))
        .number("workers_per_rack", std::uint64_t(topo.workers_per_rack))
        .number("workers", std::uint64_t(spec.total_workers()))
        .number("grads_per_worker", std::uint64_t(grads[0].size()))
        .number("duration_us", run.duration_us())
        .number("agg_goodput_gbps", run.goodput_gbps())
        .number("per_worker_goodput_gbps", per_worker_gbps);
    benchutil::perf_fields(series, wall_ms, events)
        .number("spine_blocks_completed",
                cl.spine_app().stats().blocks_completed)
        .number("uplink_frames", uplink_frames)
        .boolean("bit_identical_to_testbed", identical)
        .end_row();

    if (!identical) {
      std::fprintf(stderr,
                   "FAILED: %dx%d cluster results diverge from the flat "
                   "Testbed baseline\n",
                   topo.racks, topo.workers_per_rack);
      return 1;
    }
    if (last && telem_opts.any()) {
      benchutil::write_telemetry(telem_opts, telem, cl.simulator().now());
    }
  }

  // --- Shard sweep: same 8x8 job, 1..8 OS threads -------------------------
  std::printf("\n8x8 topology under the parallel engine (--shards sweep):\n");
  benchutil::row({"shards", "time_us", "wall_ms", "Mev/s", "speedup",
                  "rounds", "digest_ok"},
                 /*width=*/12);

  const Topology big{8, 8};
  const auto big_grads = cluster::patterned_gradients(
      big.racks * big.workers_per_rack, kBlocks * kGradsPerPacket);
  double wall_1 = 0;
  std::uint64_t digest_1 = 0;
  bool digests_ok = true;
  for (const int shards : {1, 2, 4, 8}) {
    cluster::Cluster cl(make_spec(big, shards));
    const auto wall_start = Clock::now();
    const cluster::AllreduceRun run = cluster::run_allreduce(cl, big_grads);
    const double wall_ms = ms_since(wall_start);
    const std::uint64_t events = cl.engine().events_executed();
    const std::uint64_t digest = results_digest(run, cl.engine().now());
    if (shards == 1) {
      wall_1 = wall_ms;
      digest_1 = digest;
    }
    const bool digest_ok = digest == digest_1;
    digests_ok = digests_ok && digest_ok;
    const double speedup = wall_ms <= 0 ? 0 : wall_1 / wall_ms;
    const double events_per_sec =
        wall_ms <= 0 ? 0 : double(events) / (wall_ms / 1e3);

    benchutil::row({std::to_string(cl.num_shards()),
                    benchutil::fmt(run.duration_us()),
                    benchutil::fmt(wall_ms, 1),
                    benchutil::fmt(events_per_sec / 1e6, 2),
                    benchutil::fmt(speedup, 2),
                    std::to_string(cl.engine().rounds()),
                    digest_ok ? "yes" : "NO"},
                   /*width=*/12);

    series.string("metric", "shard_sweep_8x8")
        .number("shards_requested", std::uint64_t(shards))
        .number("shards_effective", std::uint64_t(cl.num_shards()))
        .number("duration_us", run.duration_us());
    benchutil::perf_fields(series, wall_ms, events)
        .number("speedup_vs_1", speedup)
        .number("sync_rounds", cl.engine().rounds())
        .boolean("digest_matches_shards_1", digest_ok)
        .end_row();
  }
  if (!digests_ok) {
    // The determinism contract is absolute: any shard count must produce
    // the same gradients, completion count and final clock. Wall-clock
    // speedup depends on the host's core count and is recorded, not gated.
    std::fprintf(stderr,
                 "FAILED: 8x8 result digest differs across shard counts\n");
    return 1;
  }

  if (!json_out.empty()) {
    if (series.write_file(json_out)) {
      std::printf("\nwrote %zu rows to %s\n", series.row_count(),
                  json_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
  }
  return 0;
}
