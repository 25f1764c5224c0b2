#include "vigil/runner.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "netrpc/app.hpp"
#include "netrpc/host.hpp"

namespace vigil {
namespace {

/// Watchdog sampling cadence and the no-progress window that trips it.
/// The window exceeds every legitimate quiet period: under the default
/// Hardening a block's retries back off 1+2+4+8+8+8 ms (31 ms, 37 ms at
/// +20% jitter) before the 10 ms give-up grace completes it degraded.
constexpr sim::Duration kWatchdogStep = sim::Duration::millis(2);
constexpr sim::Duration kWatchdogWindow = sim::Duration::millis(60);
/// Simulated time granted after the run for the drain phase (timers
/// stopped, queue runs dry) before the quiescence checks.
constexpr sim::Duration kDrainGrace = sim::Duration::millis(60);

/// Simulated-time progress watchdog (docs/vigil.md): samples a "useful
/// work" counter every kWatchdogStep; no change for longer than
/// kWatchdogWindow while participants are still busy trips it — as a
/// livelock when raw frame churn kept flowing (futile retransmit storm),
/// as a deadlock when nothing moved at all. Ticks are global actions, so
/// they read every shard's state with the engine parked.
struct Watchdog {
  cluster::Cluster& cl;
  std::function<std::uint64_t()> useful;
  std::function<std::uint64_t()> churn;
  std::function<bool()> busy;
  sim::Time deadline;
  std::vector<Violation>* out;

  bool stopped = false;
  bool tripped = false;
  sim::Time last_useful_at{};
  std::uint64_t last_useful = 0;
  std::uint64_t churn_at_useful = 0;

  sim::Time now() { return cl.simulator().now(); }
  void start() {
    last_useful_at = now();
    last_useful = useful();
    churn_at_useful = churn();
    arm();
  }
  void arm() {
    cl.engine().schedule_global(now() + kWatchdogStep, [this] { tick(); });
  }
  void tick() {
    if (stopped) return;
    const std::uint64_t u = useful();
    const std::uint64_t c = churn();
    if (u != last_useful) {
      last_useful = u;
      last_useful_at = now();
      churn_at_useful = c;
    }
    if (!tripped && busy() && now() - last_useful_at > kWatchdogWindow) {
      tripped = true;
      const bool live = c != churn_at_useful;
      std::ostringstream os;
      os << "no useful progress for " << (now() - last_useful_at).us()
         << " us with participants still busy (" << (c - churn_at_useful)
         << " frame(s) of futile churn since)";
      out->push_back(Violation{live ? "watchdog-livelock"
                                    : "watchdog-deadlock",
                               os.str(), now()});
    }
    if (now() + kWatchdogStep <= deadline) arm();
  }
};

}  // namespace

Scenario profile_scenario(Profile profile, int blocks_per_worker) {
  const ScenarioShape shape = profile_shape(profile);
  Scenario sc;
  sc.cluster.racks = shape.racks;
  sc.cluster.workers_per_rack = shape.workers_per_rack;
  sc.cluster.backup_spine = shape.has_backup_spine;
  sc.blocks = blocks_per_worker;
  sc.deadline = sim::Time() + sim::Duration::millis(120);
  sc.hardening = Hardening{};

  jobs::TenantSpec allreduce;
  allreduce.id = 1;
  allreduce.grads =
      std::size_t(blocks_per_worker) * sc.cluster.grads_per_packet;
  allreduce.window = 64;
  jobs::TenantSpec besteffort;
  besteffort.id = 3;
  besteffort.kind = jobs::TenantKind::kBestEffort;
  besteffort.load = 0.5;
  switch (profile) {
    case Profile::kFailover:
      sc.recovery = recovery::RecoveryConfig{};
      break;
    case Profile::kJobs: {
      jobs::TenantSpec second = allreduce;
      second.id = 2;
      sc.jobs.tenants = {allreduce, second, besteffort};
      break;
    }
    case Profile::kNetRpc: {
      jobs::TenantSpec rpc;
      rpc.id = 4;
      rpc.kind = jobs::TenantKind::kNetRpc;
      sc.jobs.tenants = {allreduce, rpc};
      break;
    }
    case Profile::kFluid:
      sc.jobs.tenants = {allreduce, besteffort};
      sc.fluid = true;
      break;
  }
  return sc;
}

RunReport run_schedule(const Scenario& sc, Built* keep) {
  Built local;
  Built& b = keep != nullptr ? *keep : local;
  RunReport report;

  // --- Build --------------------------------------------------------------
  cluster::ClusterSpec spec = sc.cluster;
  if (!sc.jobs.empty() || sc.recovery) {
    // JobManager and RecoveryManager keep cross-router state without
    // per-shard synchronisation (docs/performance.md "When `--shards 1`
    // is required").
    spec.shards = 1;
  }
  spec.validate();
  b.cluster = std::make_unique<cluster::Cluster>(spec);
  cluster::Cluster& cl = *b.cluster;
  sim::Simulator& s = cl.simulator();
  const int n = spec.total_workers();

  if (sc.recovery) {
    b.recovery = std::make_unique<recovery::RecoveryManager>(cl, *sc.recovery);
  }
  if (!sc.jobs.empty()) {
    b.jobs = std::make_unique<jobs::JobManager>(cl);
    if (sc.isolation) b.jobs->enable_isolation();
    const jobs::AdmissionResult adm = b.jobs->admit_all(sc.jobs);
    if (!adm.admitted) {
      throw std::runtime_error("admission rejected: " + adm.reason);
    }
    if (sc.fluid) {
      b.fluid = std::make_unique<jobs::FluidController>(cl);
      b.jobs->enable_fluid(*b.fluid);
    }
  }
  jobs::JobManager* mgr = b.jobs.get();

  InvariantEngine inv(cl);
  if (mgr) inv.attach_jobs(*mgr, sc.jobs);

  // --- Faults + recovery machinery -----------------------------------------
  b.injector = std::make_unique<faults::FaultInjector>(s, spec.telemetry);
  if (!sc.schedule.empty()) {
    b.injector->bind(cl);
    if (mgr) mgr->bind_fault_injector(*b.injector);
    b.injector->set_base_seed(sc.seed);
    b.injector->arm(sc.schedule);
    // Chaos windows are packet-fidelity regions: fluid streams
    // re-materialise as real frames for each fault's active window.
    if (b.fluid) b.fluid->observe(sc.schedule);
  }

  // Every allreduce worker with its jitter seed: the cluster's built-in
  // workers, then each admitted tenant's (a tenant that adopted the
  // cluster's job visits the built-in workers again).
  std::vector<std::pair<trioml::TrioMlWorker*, std::uint64_t>> workers;
  for (int w = 0; w < n; ++w) {
    workers.emplace_back(&cl.worker(w),
                         sc.seed ^ (0x74726f6eull + std::uint64_t(w)));
  }
  if (mgr) {
    for (jobs::TenantId t : mgr->admitted()) {
      for (int w = 0; w < n; ++w) {
        if (trioml::TrioMlWorker* tw = mgr->tenant_worker(t, w)) {
          workers.emplace_back(
              tw, sc.seed ^ (std::uint64_t(t) << 32) ^ std::uint64_t(w));
        }
      }
    }
  }
  if (sc.hardening) {
    // Bounded retries with a give-up grace, so a block whose aggregation
    // path died for good completes degraded instead of retrying forever,
    // plus straggler aging so dead contributors age out.
    const Hardening& h = *sc.hardening;
    for (const auto& [worker, jitter_seed] : workers) {
      worker->enable_hardened_retransmit(h.initial_timeout, h.retry_budget,
                                         h.backoff_max);
      worker->enable_give_up(h.give_up);
      if (h.seed_jitter) worker->reseed_jitter(jitter_seed);
    }
    cl.start_straggler_detection(/*threads=*/10, sim::Duration::millis(1));
  }
  if (b.recovery) b.recovery->start();

  // --- Progress watchdog ---------------------------------------------------
  const auto sum_useful = [&] {
    std::uint64_t u = 0;
    for (trioml::TrioMlApp* app : cl.apps()) {
      u += app->stats().blocks_completed + app->stats().blocks_aged +
           app->stats().blocks_lost_fault + app->stats().results_emitted;
    }
    for (const auto& [worker, jitter_seed] : workers) {
      u += worker->results_received();
    }
    if (mgr) {
      for (jobs::TenantId t : mgr->admitted()) {
        for (int w = 0; w < n; ++w) {
          if (netrpc::RpcClient* c = mgr->tenant_rpc_client(int(t), w)) {
            u += c->calls_completed();
          }
        }
      }
    }
    return u;
  };
  const auto sum_churn = [&] {
    std::uint64_t c = 0;
    for (int w = 0; w < n; ++w) {
      c += cl.link(w).a_to_b().frames_delivered() +
           cl.link(w).b_to_a().frames_delivered();
    }
    for (int r = 0; r < spec.racks; ++r) {
      c += cl.fabric_link(r).a_to_b().frames_delivered() +
           cl.fabric_link(r).b_to_a().frames_delivered();
      if (cl.has_backup_spine()) {
        c += cl.backup_fabric_link(r).a_to_b().frames_delivered() +
             cl.backup_fabric_link(r).b_to_a().frames_delivered();
      }
    }
    return c;
  };
  const auto any_busy = [&] {
    return std::any_of(workers.begin(), workers.end(),
                       [](const auto& w) { return w.first->busy(); });
  };
  Watchdog wd{cl, sum_useful, sum_churn, any_busy, sc.deadline,
              &report.violations};
  wd.start();

  // --- Run until every participant finished, or the deadline ----------------
  cl.sample_trace_counters();
  if (mgr) {
    b.tenants = mgr->run(/*gen_id=*/1, sc.deadline);
  } else {
    cluster::start_allreduce(
        cl,
        cluster::patterned_gradients(
            n, std::size_t(sc.blocks) * spec.grads_per_packet),
        /*gen_id=*/1, b.allreduce);
    const auto& results = b.allreduce.results;
    s.run_until_done(sc.deadline, [&results] {
      return std::none_of(results.begin(), results.end(),
                          [](const auto& r) { return r.grads.empty(); });
    });
    b.allreduce.tally();
  }
  report.finish = s.now();
  cl.sample_trace_counters();

  // --- Drain to quiescence -------------------------------------------------
  wd.stopped = true;
  if (sc.hardening) cl.stop_straggler_detection();
  if (b.recovery) b.recovery->stop();
  if (mgr && mgr->netrpc_app()) mgr->netrpc_app()->stop_aging();
  s.run_until(s.now() + kDrainGrace);
  const bool quiescent = !cl.engine().pending();
  report.fault_digest = b.injector->digest();

  // --- Outcome accounting --------------------------------------------------
  int stranded = 0;  // neither finished nor crashed
  const auto count = [&](bool finished, bool crashed) {
    ++report.expected;
    if (finished) ++report.finished;
    if (crashed) ++report.crashed;
    if (!finished && !crashed) ++stranded;
  };
  // One allreduce worker; returns its blocks lost to aging or give-up.
  const auto count_worker = [&](const trioml::TrioMlWorker& w,
                                const trioml::AllreduceResult& r) {
    count(!r.grads.empty(), w.crashes() > 0);
    report.abandoned_blocks += w.abandoned_blocks();
    report.retransmissions += w.retransmissions();
    const std::uint64_t lost = r.degraded_blocks + r.abandoned_blocks;
    report.degraded_blocks += lost;
    return lost;
  };
  if (mgr) {
    for (const jobs::TenantRun& tr : b.tenants.tenants) {
      if (tr.kind == jobs::TenantKind::kAllreduce) {
        bool clean = true;
        for (int w = 0; w < n; ++w) {
          trioml::TrioMlWorker* tw = mgr->tenant_worker(tr.id, w);
          if (tw == nullptr) continue;
          const trioml::AllreduceResult& r = tr.results[std::size_t(w)];
          if (count_worker(*tw, r) != 0 || r.grads.empty() ||
              tw->crashes() > 0) {
            clean = false;
          }
        }
        if (clean) report.digests.emplace_back(int(tr.id), tr.digest());
      } else if (tr.kind == jobs::TenantKind::kNetRpc) {
        const jobs::TenantSpec* ts = mgr->tenant_spec(tr.id);
        const int clients = ts != nullptr ? int(ts->rpc_clients) : 0;
        int crashed = 0;
        for (int w = 0; w < n; ++w) {
          const netrpc::RpcClient* c = mgr->tenant_rpc_client(int(tr.id), w);
          if (c != nullptr && c->crashed()) ++crashed;
        }
        report.expected += clients;
        report.finished += tr.finished;
        report.crashed += crashed;
        stranded += std::max(0, clients - tr.finished - crashed);
      }
    }
  } else {
    for (int w = 0; w < n; ++w) {
      count_worker(cl.worker(w), b.allreduce.results[std::size_t(w)]);
    }
    if (report.finished == report.expected && report.crashed == 0 &&
        report.degraded_blocks == 0) {
      report.digests.emplace_back(
          0, cluster::results_digest(b.allreduce.results));
    }
  }
  report.converged = stranded == 0;

  for (int w = 0; w < n; ++w) {
    report.corrupted_frames += cl.link(w).a_to_b().frames_corrupted() +
                               cl.link(w).b_to_a().frames_corrupted();
  }
  for (int r = 0; r < spec.racks; ++r) {
    report.corrupted_frames +=
        cl.fabric_link(r).a_to_b().frames_corrupted() +
        cl.fabric_link(r).b_to_a().frames_corrupted();
  }

  // --- Invariants ----------------------------------------------------------
  if (quiescent) {
    inv.check_quiescent();
  } else {
    // Timers (or a wedged retransmit path) kept the queue alive; the
    // anytime checks still hold at any parked instant.
    inv.check_conservation();
  }
  for (const Violation& v : inv.violations()) report.violations.push_back(v);

  // Golden-digest convergence against the same scenario run fault-free
  // (header contract: only for provably value-lossless runs).
  if (!sc.schedule.empty() && !report.digests.empty() &&
      report.corrupted_frames == 0) {
    Scenario fault_free = sc;
    fault_free.schedule = faults::FaultSchedule();
    fault_free.cluster.telemetry = nullptr;
    const RunReport base = run_schedule(fault_free);
    if (base.ok() && base.crashed == 0 && base.degraded_blocks == 0 &&
        base.abandoned_blocks == 0) {
      for (const auto& [id, digest] : report.digests) {
        for (const auto& [base_id, base_digest] : base.digests) {
          if (base_id != id || base_digest == digest) continue;
          std::ostringstream os;
          os << (id == 0 ? "job" : "tenant") << " " << id
             << ": post-recovery digest " << std::hex << digest
             << " != fault-free baseline " << base_digest;
          report.violations.push_back(
              Violation{"golden-digest", os.str(), s.now()});
        }
      }
    }
  }
  return report;
}

}  // namespace vigil
