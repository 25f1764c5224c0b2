// Failover sweep (extension, docs/recovery.md): kill time vs
// time-to-recover of a self-healing cluster allreduce.
//
// Each sweep point runs an 8-worker, 2-rack allreduce with a standby
// spine and the recovery control plane armed (timer-thread heartbeats,
// phi-accrual failure detection, automatic failover), then hard-kills
// the primary spine at a different instant of the epoch. Reported per
// point: detection latency (kill -> death declaration), failover latency
// (death -> leaves re-homed), total recovery overhead (faulted finish -
// fault-free finish), and the bit-identity of the recovered result
// against the fault-free baseline. Every point runs twice and the
// fault + recovery log digests are compared, so the bench doubles as a
// determinism check; any non-finite recovery time, lost worker, broken
// bit-identity or digest mismatch exits non-zero.
//
//   fig_failover [--quick] [--json-out=<file>]   # BENCH_failover.json in CI
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "recovery/recovery.hpp"
#include "sim/digest.hpp"

namespace {

struct Outcome {
  double finish_us = 0;       // last result arrival
  double detect_us = 0;       // kill -> death declared
  double failover_us = 0;     // death declared -> leaves re-homed
  int finished = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t blocks_invalidated = 0;
  std::uint64_t failovers = 0;
  std::uint64_t degraded_blocks = 0;
  std::uint64_t result_digest = 0;
  std::uint64_t log_digest = 0;  // fault log folded with recovery log
};


// kill_us < 0 runs the fault-free baseline.
Outcome run_point(double kill_us, std::size_t blocks) {
  cluster::ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 1024;
  spec.backup_spine = true;
  spec.host_link.gbps = 10.0;  // stretch the epoch across the kill sweep

  cluster::Cluster cl(spec);
  const int workers = spec.total_workers();
  for (int w = 0; w < workers; ++w) {
    cl.worker(w).enable_hardened_retransmit(sim::Duration::millis(1),
                                            /*retry_budget=*/50,
                                            sim::Duration::millis(8));
  }

  recovery::RecoveryConfig rc;
  rc.heartbeat.period = sim::Duration::micros(20);
  rc.heartbeat.check_period = sim::Duration::micros(10);
  rc.heartbeat.phi_threshold = 4.0;
  recovery::RecoveryManager mgr(cl, rc);
  mgr.start();

  faults::FaultInjector injector(cl.simulator(), nullptr);
  injector.bind(cl);
  if (kill_us >= 0) {
    faults::FaultSchedule schedule;
    schedule.kill(sim::Time() + sim::Duration(std::int64_t(kill_us * 1000)),
                  faults::FaultSchedule::spine_router());
    injector.arm(schedule);
  }

  const auto grads = cluster::patterned_gradients(
      workers, blocks * spec.grads_per_packet);
  const auto run = cluster::run_allreduce(
      cl, grads, /*gen_id=*/1, sim::Time(sim::Duration::millis(100).ns()));
  mgr.stop();

  Outcome out;
  out.finish_us = (run.finish - run.start).us();
  out.finished = run.finished;
  for (int w = 0; w < workers; ++w) {
    out.retransmits += cl.worker(w).retransmissions();
  }
  for (const auto& r : run.results) out.degraded_blocks += r.degraded_blocks;
  out.blocks_invalidated =
      injector.blocks_invalidated() + mgr.blocks_invalidated();
  out.failovers = mgr.failovers();
  if (mgr.failovers() > 0) {
    const sim::Time killed = sim::Time() + sim::Duration(
        std::int64_t(kill_us * 1000));
    out.detect_us = (mgr.last_death_at() - killed).us();
    out.failover_us = (mgr.last_failover_at() - mgr.last_death_at()).us();
  }
  out.result_digest = cluster::results_digest(run.results);
  // Fold fault and recovery fingerprints into one replay digest.
  out.log_digest = sim::Digest(injector.digest()).u64(mgr.digest()).value();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::string json_out = benchutil::parse_json_out_flag(argc, argv);
  const std::size_t blocks = quick ? 128 : 256;

  benchutil::banner(
      "Failover sweep: spine kill time vs time-to-recover",
      "extension of SS5/SS7 — self-healing control plane under hard "
      "router loss");

  // Kill instants across the epoch; the heartbeat estimator primes by
  // ~40us, and the fault-free epoch spans several hundred us on 10G
  // access links.
  std::vector<double> kill_sweep_us = {50, 90, 130, 180, 300};
  if (quick) kill_sweep_us = {50, 90};

  const Outcome baseline = run_point(-1, blocks);
  std::printf("fault-free finish: %.1f us (finished %d/8)\n\n",
              baseline.finish_us, baseline.finished);

  benchutil::row({"kill_us", "detect_us", "failover_us", "recover_us",
                  "finish_us", "finished", "rexmits", "inval", "bitid",
                  "determ"},
                 12);
  benchutil::JsonSeries series;
  int failures = 0;
  if (baseline.finished != 8 || baseline.failovers != 0) ++failures;
  for (double kill_us : kill_sweep_us) {
    const Outcome a = run_point(kill_us, blocks);
    const Outcome b = run_point(kill_us, blocks);
    const bool deterministic = a.log_digest == b.log_digest &&
                               a.result_digest == b.result_digest &&
                               a.finish_us == b.finish_us;
    const bool bit_identical = a.result_digest == baseline.result_digest &&
                               a.degraded_blocks == 0;
    // Time-to-recover: extra wall-clock the failover cost the allreduce.
    // Finite by construction when every worker finished before the run
    // deadline; a worker that never converges leaves finish pinned at
    // the deadline and fails the `finished` check below.
    const double recover_us = a.finish_us - baseline.finish_us;
    const bool ok = deterministic && bit_identical && a.finished == 8 &&
                    a.failovers == 1 && a.finish_us < 100'000.0;
    if (!ok) ++failures;

    benchutil::row({benchutil::fmt(kill_us, 0), benchutil::fmt(a.detect_us, 1),
                    benchutil::fmt(a.failover_us, 1),
                    benchutil::fmt(recover_us, 1),
                    benchutil::fmt(a.finish_us, 1),
                    std::to_string(a.finished) + "/8",
                    std::to_string(a.retransmits),
                    std::to_string(a.blocks_invalidated),
                    bit_identical ? "yes" : "NO",
                    deterministic ? "yes" : "NO"},
                   12);
    series.number("kill_us", kill_us)
        .number("detect_us", a.detect_us)
        .number("failover_us", a.failover_us)
        .number("recover_us", recover_us)
        .number("finish_us", a.finish_us)
        .number("baseline_finish_us", baseline.finish_us)
        .number("finished", std::uint64_t(a.finished))
        .number("retransmits", a.retransmits)
        .number("blocks_invalidated", a.blocks_invalidated)
        .number("failovers", a.failovers)
        .number("degraded_blocks", a.degraded_blocks)
        .boolean("bit_identical", bit_identical)
        .boolean("deterministic", deterministic)
        .end_row();
  }

  if (!json_out.empty() && series.write_file(json_out)) {
    std::printf("\nwrote %zu rows to %s\n", series.row_count(),
                json_out.c_str());
  }
  if (failures != 0) {
    std::printf("\n%d sweep point(s) failed recovery/determinism checks\n",
                failures);
    return 1;
  }
  return 0;
}
