#include "faults/injector.hpp"

#include <stdexcept>

#include "cluster/cluster.hpp"
#include "sim/digest.hpp"
#include "trio/router.hpp"
#include "trioml/app.hpp"
#include "trioml/host.hpp"
#include "trioml/testbed.hpp"

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

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator,
                             telemetry::Telemetry* telem)
    : sim_(simulator), telem_(telem) {
  if (telem_ != nullptr) {
    injected_ctr_ = telem_->metrics.counter("faults.injected");
    recovered_ctr_ = telem_->metrics.counter("faults.recovered");
    buckets_ctr_ = telem_->metrics.counter("faults.buckets_dropped");
    invalidated_ctr_ = telem_->metrics.counter("faults.blocks_invalidated");
  }
}

void FaultInjector::bind(cluster::Cluster& cluster) {
  topo_ = Topology{};
  engine_ = &cluster.engine();
  topo_.host_links = cluster.num_workers();
  topo_.fabric_links = cluster.num_racks();
  topo_.workers = cluster.num_workers();
  topo_.leaf_routers = cluster.num_racks();
  topo_.leaf_aggs = cluster.num_racks();
  topo_.has_spine = true;
  topo_.host_link = [&cluster](int i) { return &cluster.link(i); };
  topo_.fabric_link = [&cluster](int r) { return &cluster.fabric_link(r); };
  topo_.worker = [&cluster](int i) { return &cluster.worker(i); };
  topo_.leaf_router = [&cluster](int r) { return &cluster.leaf(r); };
  topo_.spine_router = [&cluster]() { return &cluster.spine(); };
  topo_.leaf_agg = [&cluster](int r) { return &cluster.leaf_app(r); };
  topo_.spine_agg = [&cluster]() { return &cluster.spine_app(); };
  topo_.router_apps = [&cluster](bool spine, int index) {
    std::vector<trioml::TrioMlApp*> apps;
    if (spine) apps.push_back(&cluster.spine_app());
    else apps.push_back(&cluster.leaf_app(index));
    return apps;
  };
  bound_ = true;
}

void FaultInjector::bind(trioml::Testbed& testbed) {
  topo_ = Topology{};
  engine_ = nullptr;
  topo_.host_links = testbed.num_workers();
  topo_.fabric_links = 0;
  topo_.workers = testbed.num_workers();
  topo_.leaf_routers = 1;  // `leaf:0` / `router:0` = the testbed's router
  // `leaf:n` addresses the n-th aggregating app (in hierarchical mode the
  // top-level PFE is the last one), not the raw PFE number.
  const std::vector<trioml::TrioMlApp*> apps = testbed.apps();
  topo_.leaf_aggs = static_cast<int>(apps.size());
  topo_.has_spine = false;
  topo_.host_link = [&testbed](int i) { return &testbed.link(i); };
  topo_.worker = [&testbed](int i) { return &testbed.worker(i); };
  topo_.leaf_router = [&testbed](int) { return &testbed.router(); };
  topo_.leaf_agg = [apps](int i) { return apps.at(std::size_t(i)); };
  topo_.router_apps = [apps](bool, int) { return apps; };
  bound_ = true;
}

void FaultInjector::arm(const FaultSchedule& schedule) {
  if (!bound_) {
    throw std::logic_error("FaultInjector: bind() a topology before arm()");
  }
  for (const FaultEvent& event : schedule.events()) {
    // Validate eagerly so a bad schedule fails at arm() time, not deep
    // into the run.
    int count = 0;
    bool spine = false;
    switch (event.target.kind) {
      case TargetKind::kHostLink: count = topo_.host_links; break;
      case TargetKind::kFabricLink: count = topo_.fabric_links; break;
      case TargetKind::kWorker: count = topo_.workers; break;
      case TargetKind::kLeafRouter: count = topo_.leaf_routers; break;
      case TargetKind::kLeafAgg: count = topo_.leaf_aggs; break;
      case TargetKind::kSpineRouter:
      case TargetKind::kSpineAgg:
        spine = true;
        break;
    }
    if (spine) {
      if (!topo_.has_spine) {
        throw std::out_of_range("FaultInjector: no spine in this topology (" +
                                describe(event) + ")");
      }
    } else if (count == 0 ||
               (event.target.index != Target::kAll &&
                event.target.index >= count)) {
      throw std::out_of_range("FaultInjector: target out of range (" +
                              describe(event) + ")");
    }
    if (engine_ != nullptr) {
      // Cluster topologies execute faults as engine global actions: the
      // whole cluster is quiesced at event.at, so a fault that touches
      // links or routers on several shards applies atomically and in the
      // same total order at any shard count.
      engine_->schedule_global(event.at, [this, event] { execute(event); });
    } else {
      sim_.schedule_at(event.at, [this, event] { execute(event); });
    }
  }
}

void FaultInjector::schedule_after(sim::Duration delay,
                                   sim::EventQueue::Callback fn) {
  // In engine mode this runs inside a global action, so sim_.now() (shard
  // 0's clock) reads the action's quiesce time.
  if (engine_ != nullptr) {
    engine_->schedule_global(sim_.now() + delay, std::move(fn));
  } else {
    sim_.schedule_in(delay, std::move(fn));
  }
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
  log_.push_back(LogEntry{sim_.now(), what});
  if (recovery) {
    ++recoveries_;
    recovered_ctr_.inc();
  } else {
    ++faults_injected_;
    injected_ctr_.inc();
  }
  if (telem_ != nullptr) {
    telem_->tracer.instant(kTracePid, recovery ? 1 : 0, what, sim_.now());
  }
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
    case TargetKind::kFabricLink: {
      const bool host = t.kind == TargetKind::kHostLink;
      const int count = host ? topo_.host_links : topo_.fabric_links;
      const auto& get = host ? topo_.host_link : topo_.fabric_link;
      if (t.index != Target::kAll) {
        apply_to_link(event, *get(t.index), t.index);
      } else {
        for (int i = 0; i < count; ++i) apply_to_link(event, *get(i), i);
      }
      break;
    }
    case TargetKind::kWorker: {
      const auto apply = [&](int i) {
        // A `tenant=` qualifier re-routes to that tenant's worker on the
        // host via the resolver the jobs layer installed (docs/jobs.md);
        // tenants without a worker there make the event a logged no-op.
        trioml::TrioMlWorker* w = topo_.worker(i);
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
      };
      if (t.index != Target::kAll) apply(t.index);
      else for (int i = 0; i < topo_.workers; ++i) apply(i);
      break;
    }
    case TargetKind::kLeafRouter:
    case TargetKind::kSpineRouter: {
      if (event.kind != FaultKind::kRouterStall &&
          event.kind != FaultKind::kRouterKill &&
          event.kind != FaultKind::kRouterRevive) {
        throw std::logic_error("FaultInjector: bad router fault");
      }
      const bool spine = t.kind == TargetKind::kSpineRouter;
      const auto apply = [&](trio::Router& r, int index,
                             const std::string& name) {
        switch (event.kind) {
          case FaultKind::kRouterStall:
            r.stall_for(event.duration);
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
            r.kill();
            std::size_t invalidated = 0;
            for (trioml::TrioMlApp* app : topo_.router_apps(spine, index)) {
              invalidated += app->invalidate_active_blocks();
            }
            blocks_invalidated_ += invalidated;
            invalidated_ctr_.inc(invalidated);
            record("kill " + name + " (" + std::to_string(invalidated) +
                       " blocks invalidated)",
                   false);
            break;
          }
          case FaultKind::kRouterRevive:
            r.revive();
            record("revive " + name, true);
            break;
          default:
            break;
        }
      };
      if (spine) {
        apply(*topo_.spine_router(), 0, "spine");
      } else if (t.index != Target::kAll) {
        apply(*topo_.leaf_router(t.index), t.index,
              "leaf:" + std::to_string(t.index));
      } else {
        for (int i = 0; i < topo_.leaf_routers; ++i) {
          apply(*topo_.leaf_router(i), i, "leaf:" + std::to_string(i));
        }
      }
      break;
    }
    case TargetKind::kLeafAgg:
    case TargetKind::kSpineAgg: {
      if (event.kind != FaultKind::kBucketDrop) {
        throw std::logic_error("FaultInjector: bad aggregator fault");
      }
      const auto apply = [&](trioml::TrioMlApp& app, const std::string& name) {
        const std::size_t n = app.drop_active_blocks(event.job_id);
        buckets_dropped_ += n;
        buckets_ctr_.inc(n);
        record("drop-buckets " + name + " job=" +
                   std::to_string(int(event.job_id)) + " (" +
                   std::to_string(n) + " blocks)",
               false);
      };
      if (t.kind == TargetKind::kSpineAgg) {
        apply(*topo_.spine_agg(), "spine");
      } else if (t.index != Target::kAll) {
        apply(*topo_.leaf_agg(t.index), "leaf:" + std::to_string(t.index));
      } else {
        for (int i = 0; i < topo_.leaf_aggs; ++i) {
          apply(*topo_.leaf_agg(i), "leaf:" + std::to_string(i));
        }
      }
      // A netrpc tenant's "buckets" are its hot-key cache entries, which
      // live on leaf 0's PFE only (docs/netrpc.md).
      if (t.kind == TargetKind::kLeafAgg && cache_dropper_ &&
          (t.index == Target::kAll || t.index == 0)) {
        const std::size_t n = cache_dropper_(event.job_id);
        if (n > 0) {
          buckets_dropped_ += n;
          buckets_ctr_.inc(n);
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
