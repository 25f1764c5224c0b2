#include "faults/injector.hpp"

#include <stdexcept>

#include "cluster/cluster.hpp"
#include "sim/digest.hpp"
#include "trio/router.hpp"
#include "trioml/app.hpp"
#include "trioml/host.hpp"

namespace faults {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Label for one expanded wildcard instance ("host:3.up" from "host:*").
std::string instance_label(const Target& t, int instance) {
  Target concrete = t;
  concrete.index = instance;
  return target_name(concrete);
}

/// "spine" or "leaf:<rack>": how the log names a router and its app.
std::string node_name(bool spine, int rack) {
  return spine ? "spine" : "leaf:" + std::to_string(rack);
}

/// Instances of `kind` in `cl`: the range a target's index must fall in
/// and the instances a wildcard expands to. The spine is one.
int instances(const cluster::Cluster& cl, TargetKind kind) {
  switch (kind) {
    case TargetKind::kHostLink:
    case TargetKind::kWorker:
      return cl.num_workers();
    case TargetKind::kFabricLink:
    case TargetKind::kLeafRouter:
    case TargetKind::kLeafAgg:
      return cl.num_racks();
    case TargetKind::kSpineRouter:
    case TargetKind::kSpineAgg:
      break;
  }
  return 1;
}

/// Calls `fn(i)` for the target's one instance or, for a wildcard, for
/// every instance in `cl`.
template <typename Fn>
void for_each_instance(const cluster::Cluster& cl, const Target& t, Fn&& fn) {
  if (t.index != Target::kAll) {
    fn(t.index);
    return;
  }
  for (int i = 0; i < instances(cl, t.kind); ++i) fn(i);
}

}  // namespace

FaultInjector::FaultInjector(cluster::Cluster& cluster)
    : cluster_(cluster) {
  telemetry::Registry& metrics = cluster_.telemetry().metrics;
  metrics.bind(faults_injected_, "faults.injected");
  metrics.bind(recoveries_, "faults.recovered");
  metrics.bind(buckets_dropped_, "faults.buckets_dropped");
  metrics.bind(blocks_invalidated_, "faults.blocks_invalidated");
}

void FaultInjector::arm(const FaultSchedule& schedule) {
  for (const FaultEvent& event : schedule.events()) {
    // Validate eagerly so a bad schedule fails at arm() time, not deep
    // into the run.
    if (event.target.index != Target::kAll &&
        event.target.index >= instances(cluster_, event.target.kind)) {
      throw std::out_of_range("FaultInjector: target out of range (" +
                              describe(event) + ")");
    }
    // The whole cluster is quiesced at event.at, so a fault that touches
    // links or routers on several shards applies atomically and in the
    // same total order at any shard count.
    cluster_.engine().schedule_global(event.at,
                                      [this, event] { execute(event); });
  }
}

void FaultInjector::schedule_after(sim::Duration delay,
                                   sim::EventQueue::Callback fn) {
  // This runs inside a global action, so shard 0's clock reads the
  // action's quiesce time.
  cluster_.engine().schedule_global(cluster_.simulator().now() + delay,
                                    std::move(fn));
}

std::uint64_t FaultInjector::derive_seed(const FaultEvent& event,
                                         int instance) const {
  if (event.seed != 0) return event.seed + std::uint64_t(instance) * kGolden;
  std::uint64_t h = 0x6a09e667f3bcc908ull;
  if (base_seed_ != 0) h ^= mix(base_seed_);  // 0 keeps legacy streams
  h = mix(h ^ std::uint64_t(event.at.ns()));
  h = mix(h ^ (std::uint64_t(event.kind) << 8) ^
          (std::uint64_t(event.target.kind) << 16));
  h = mix(h ^ std::uint64_t(instance + 1));
  return h | 1;  // never 0
}

void FaultInjector::record(const std::string& what, bool recovery) {
  const sim::Time now = cluster_.simulator().now();
  log_.push_back(LogEntry{now, what});
  if (recovery) {
    recoveries_.inc();
  } else {
    faults_injected_.inc();
  }
  cluster_.telemetry().tracer.instant(kTracePid, recovery ? 1 : 0, what, now);
}

void FaultInjector::apply_to_link(const FaultEvent& event, net::Link& link,
                                  int instance) {
  const Target& t = event.target;
  const std::string name = instance_label(t, instance);
  // Apply `fn` to the selected direction(s); dir_index decorrelates seeds.
  const auto each_dir = [&](auto&& fn) {
    if (t.dir != LinkDir::kDown) fn(link.a_to_b(), 0);
    if (t.dir != LinkDir::kUp) fn(link.b_to_a(), 1);
  };
  switch (event.kind) {
    case FaultKind::kLinkDown:
      each_dir([](net::LinkEndpoint& ep, int) { ep.set_down(true); });
      record(kind_name(event.kind) + std::string(" ") + name, false);
      break;
    case FaultKind::kLinkUp:
      each_dir([](net::LinkEndpoint& ep, int) { ep.set_down(false); });
      record(kind_name(event.kind) + std::string(" ") + name, true);
      break;
    case FaultKind::kLinkFlap: {
      each_dir([](net::LinkEndpoint& ep, int) { ep.set_down(true); });
      record("flap " + name + " down", false);
      schedule_after(event.duration, [this, &link, event, name] {
        const auto dir = event.target.dir;
        if (dir != LinkDir::kDown) link.a_to_b().set_down(false);
        if (dir != LinkDir::kUp) link.b_to_a().set_down(false);
        record("flap " + name + " up", true);
      });
      break;
    }
    case FaultKind::kBurstLoss: {
      each_dir([&](net::LinkEndpoint& ep, int dir) {
        ep.set_burst_loss(event.burst,
                          derive_seed(event, instance) + dir * kGolden);
      });
      record("burst " + name + " on", false);
      if (event.duration.ns() != 0) {
        schedule_after(event.duration, [this, &link, event, name] {
          const auto dir = event.target.dir;
          if (dir != LinkDir::kDown) link.a_to_b().clear_burst_loss();
          if (dir != LinkDir::kUp) link.b_to_a().clear_burst_loss();
          record("burst " + name + " off", true);
        });
      }
      break;
    }
    case FaultKind::kIidLoss: {
      each_dir([&](net::LinkEndpoint& ep, int dir) {
        ep.set_loss(event.probability,
                    derive_seed(event, instance) + dir * kGolden);
      });
      record("loss " + name + " on", false);
      if (event.duration.ns() != 0) {
        schedule_after(event.duration, [this, &link, event, name] {
          const auto dir = event.target.dir;
          if (dir != LinkDir::kDown) link.a_to_b().set_loss(0.0);
          if (dir != LinkDir::kUp) link.b_to_a().set_loss(0.0);
          record("loss " + name + " off", true);
        });
      }
      break;
    }
    case FaultKind::kCorrupt: {
      each_dir([&](net::LinkEndpoint& ep, int dir) {
        ep.set_corruption(event.probability,
                          derive_seed(event, instance) + dir * kGolden);
      });
      record("corrupt " + name + " on", false);
      if (event.duration.ns() != 0) {
        schedule_after(event.duration, [this, &link, event, name] {
          const auto dir = event.target.dir;
          if (dir != LinkDir::kDown) link.a_to_b().set_corruption(0.0);
          if (dir != LinkDir::kUp) link.b_to_a().set_corruption(0.0);
          record("corrupt " + name + " off", true);
        });
      }
      break;
    }
    default:
      throw std::logic_error("FaultInjector: not a link fault");
  }
}

void FaultInjector::execute(const FaultEvent& event) {
  const Target& t = event.target;
  switch (t.kind) {
    case TargetKind::kHostLink:
      for_each_instance(cluster_, t, [&](int i) {
        apply_to_link(event, cluster_.link(i), i);
      });
      break;
    case TargetKind::kFabricLink:
      for_each_instance(cluster_, t, [&](int r) {
        apply_to_link(event, cluster_.fabric_link(r), r);
      });
      break;
    case TargetKind::kWorker:
      for_each_instance(cluster_, t, [&](int i) {
        // A `tenant=` qualifier re-routes to that tenant's worker on the
        // host via the resolver the jobs layer installed (docs/jobs.md);
        // tenants without a worker there make the event a logged no-op.
        trioml::TrioMlWorker* w = &cluster_.worker(i);
        std::string label = "worker:" + std::to_string(i);
        if (event.tenant >= 0) {
          // Non-allreduce tenants (netrpc clients/servers) are tried
          // first; a handled event skips the worker path entirely.
          const bool restart = event.kind == FaultKind::kHostRestart;
          if (tenant_host_handler_ &&
              tenant_host_handler_(event.tenant, i, restart)) {
            record((restart ? "restart " : "crash ") + label +
                       " tenant=" + std::to_string(event.tenant),
                   restart);
            return;
          }
          if (!tenant_resolver_) {
            throw std::logic_error(
                "FaultInjector: tenant-qualified fault without a "
                "tenant-worker resolver (bind a JobManager)");
          }
          w = tenant_resolver_(event.tenant, i);
          label += " tenant=" + std::to_string(event.tenant);
        }
        if (event.kind == FaultKind::kHostCrash) {
          if (w != nullptr) w->crash();
          record("crash " + label + (w == nullptr ? " (no worker)" : ""),
                 false);
        } else if (event.kind == FaultKind::kHostRestart) {
          if (w != nullptr) w->restart();
          record("restart " + label + (w == nullptr ? " (no worker)" : ""),
                 true);
        } else {
          throw std::logic_error("FaultInjector: bad worker fault");
        }
      });
      break;
    case TargetKind::kLeafRouter:
    case TargetKind::kSpineRouter: {
      const bool spine = t.kind == TargetKind::kSpineRouter;
      for_each_instance(cluster_, t, [&](int r) {
        trio::Router& router = spine ? cluster_.spine() : cluster_.leaf(r);
        const std::string name = node_name(spine, r);
        switch (event.kind) {
          case FaultKind::kRouterStall:
            router.stall_for(event.duration);
            record("stall " + name, false);
            schedule_after(event.duration, [this, name] {
              record("resume " + name, true);
            });
            break;
          case FaultKind::kRouterKill: {
            // Power loss: the router's in-chip aggregation state dies
            // with it. The generation bump is the invalidation point —
            // a post-revive router cannot age out pre-kill buckets into
            // bogus degraded Results (docs/recovery.md).
            router.kill();
            trioml::TrioMlApp& app =
                spine ? cluster_.spine_app() : cluster_.leaf_app(r);
            const std::size_t invalidated = app.invalidate_active_blocks();
            blocks_invalidated_.inc(invalidated);
            record("kill " + name + " (" + std::to_string(invalidated) +
                       " blocks invalidated)",
                   false);
            break;
          }
          case FaultKind::kRouterRevive:
            router.revive();
            record("revive " + name, true);
            break;
          default:
            throw std::logic_error("FaultInjector: bad router fault");
        }
      });
      break;
    }
    case TargetKind::kLeafAgg:
    case TargetKind::kSpineAgg: {
      if (event.kind != FaultKind::kBucketDrop) {
        throw std::logic_error("FaultInjector: bad aggregator fault");
      }
      const bool spine = t.kind == TargetKind::kSpineAgg;
      for_each_instance(cluster_, t, [&](int r) {
        trioml::TrioMlApp& app =
            spine ? cluster_.spine_app() : cluster_.leaf_app(r);
        const std::size_t n = app.drop_active_blocks(event.job_id);
        buckets_dropped_.inc(n);
        record("drop-buckets " + node_name(spine, r) + " job=" +
                   std::to_string(int(event.job_id)) + " (" +
                   std::to_string(n) + " blocks)",
               false);
      });
      // A netrpc tenant's "buckets" are its hot-key cache entries, which
      // live on leaf 0's PFE only (docs/netrpc.md).
      if (!spine && cache_dropper_ &&
          (t.index == Target::kAll || t.index == 0)) {
        const std::size_t n = cache_dropper_(event.job_id);
        if (n > 0) {
          buckets_dropped_.inc(n);
          record("drop-cache leaf:0 tenant=" +
                     std::to_string(int(event.job_id)) + " (" +
                     std::to_string(n) + " entries)",
                 false);
        }
      }
      break;
    }
  }
}

std::uint64_t FaultInjector::digest() const {
  sim::Digest d;
  for (const LogEntry& entry : log_) {
    d.u64(std::uint64_t(entry.at.ns())).str(entry.what);
  }
  return d.value();
}

}  // namespace faults
