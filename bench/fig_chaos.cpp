// Chaos sweep (extension, docs/faults.md): fault intensity vs
// time-to-convergence of a cluster allreduce.
//
// Each sweep point runs an 8-worker, 2-rack allreduce under a scaled
// chaos schedule — Gilbert–Elliott burst loss on every host link, one
// trunk flap — with the hardened recovery path on (bounded exponential
// backoff, retry budgets, straggler aging). The top intensity also
// crashes one worker mid-allreduce, exercising the excluded-worker
// semantics: convergence is then over the 7 survivors. Every point is
// run twice and the fault-log digests compared, so the bench doubles as
// a determinism check. Points run through the scenario runner
// (vigil::run_schedule, docs/vigil.md "The runner"), so each is also
// swept by the invariant catalogue and the progress watchdog.
//
//   fig_chaos [--quick] [--json-out=<file>]   # BENCH_chaos.json in CI
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "faults/schedule.hpp"
#include "vigil/runner.hpp"

namespace {

struct Point {
  double intensity;     // scales burst p_enter and the flap outage
  bool crash;           // also crash worker 5 mid-allreduce
};

struct Outcome {
  double convergence_us = 0;
  int finished = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t backoff_rearms = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t degraded_blocks = 0;
  std::uint64_t faults = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t digest = 0;
  std::vector<vigil::Violation> violations;
};

Outcome run_point(const Point& p, int blocks) {
  vigil::Scenario sc;
  sc.cluster.racks = 2;
  sc.cluster.workers_per_rack = 4;
  sc.cluster.grads_per_packet = 1024;
  sc.blocks = blocks;
  // The figure's own recovery policy: a gentler backoff than the
  // runner's default, and no give-up (every block waits for aging).
  vigil::Hardening hardening;
  hardening.initial_timeout = sim::Duration::millis(5);
  hardening.retry_budget = 10;
  hardening.backoff_max = sim::Duration::millis(20);
  hardening.give_up = sim::Duration::zero();
  sc.hardening = hardening;

  faults::FaultSchedule& schedule = sc.schedule;
  if (p.intensity > 0) {
    net::GilbertElliott ge;
    ge.p_enter = 0.01 * p.intensity;
    ge.p_exit = 0.2;
    schedule.burst_loss(sim::Time(), faults::FaultSchedule::host_link(
                                         faults::Target::kAll),
                        ge, sim::Duration::millis(2));
    schedule.flap(sim::Time() + sim::Duration::micros(30),
                  faults::FaultSchedule::fabric_link(0),
                  sim::Duration(std::int64_t(100'000 * p.intensity)));
  }
  if (p.crash) {
    schedule.crash(sim::Time() + sim::Duration::micros(50), 5);
  }

  vigil::Built built;
  const vigil::RunReport report = vigil::run_schedule(sc, &built);
  const cluster::AllreduceRun& run = built.allreduce;

  Outcome out;
  out.convergence_us = run.duration_us();
  out.finished = run.finished;
  out.retransmits = report.retransmissions;
  for (int w = 0; w < sc.cluster.total_workers(); ++w) {
    out.backoff_rearms += built.cluster->worker(w).backoff_rearms();
    out.budget_exhausted += built.cluster->worker(w).retry_budget_exhausted();
  }
  for (const auto& r : run.results) out.degraded_blocks += r.degraded_blocks;
  out.faults = built.injector->faults_injected();
  out.recoveries = built.injector->recoveries();
  out.digest = report.fault_digest;
  out.violations = report.violations;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::string json_out = benchutil::parse_json_out_flag(argc, argv);
  const int blocks = quick ? 16 : 64;

  benchutil::banner(
      "Chaos sweep: fault intensity vs time-to-convergence",
      "extension of SS7 \"Packet loss in Trio-ML\" under injected faults");

  std::vector<Point> sweep = {
      {0.0, false}, {0.5, false}, {1.0, false}, {2.0, false}, {2.0, true},
  };
  if (quick) sweep = {{0.0, false}, {1.0, false}, {2.0, true}};

  benchutil::row({"intensity", "crash", "conv_us", "finished", "rexmits",
                  "backoffs", "degraded", "determ"});
  benchutil::JsonSeries series;
  int failures = 0;
  for (const Point& p : sweep) {
    const Outcome a = run_point(p, blocks);
    const Outcome b = run_point(p, blocks);
    const bool deterministic =
        a.digest == b.digest && a.convergence_us == b.convergence_us &&
        a.finished == b.finished && a.retransmits == b.retransmits;
    if (!deterministic) ++failures;
    const int expected = 8 - (p.crash ? 1 : 0);
    if (a.finished < expected) ++failures;
    for (const vigil::Violation& v : a.violations) {
      std::printf("invariant %s tripped at %s: %s\n", v.invariant.c_str(),
                  v.at.to_string().c_str(), v.detail.c_str());
      ++failures;
    }

    benchutil::row({benchutil::fmt(p.intensity, 1), p.crash ? "yes" : "no",
                    benchutil::fmt(a.convergence_us),
                    std::to_string(a.finished) + "/8",
                    std::to_string(a.retransmits),
                    std::to_string(a.backoff_rearms),
                    std::to_string(a.degraded_blocks),
                    deterministic ? "yes" : "NO"});
    series.number("intensity", p.intensity)
        .boolean("crash", p.crash)
        .number("convergence_us", a.convergence_us)
        .number("finished", std::uint64_t(a.finished))
        .number("retransmits", a.retransmits)
        .number("backoff_rearms", a.backoff_rearms)
        .number("retry_budget_exhausted", a.budget_exhausted)
        .number("degraded_blocks", a.degraded_blocks)
        .number("faults_injected", a.faults)
        .number("recoveries", a.recoveries)
        .boolean("deterministic", deterministic)
        .end_row();
  }

  if (!json_out.empty() && series.write_file(json_out)) {
    std::printf("\nwrote %zu rows to %s\n", series.row_count(),
                json_out.c_str());
  }
  if (failures != 0) {
    std::printf("\n%d sweep check(s) failed determinism/convergence/"
                "invariants\n",
                failures);
    return 1;
  }
  return 0;
}
