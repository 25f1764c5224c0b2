#include "cluster/cluster.hpp"

#include <stdexcept>
#include <string>

#include "trioml/addressing.hpp"

namespace cluster {

namespace {

std::string rack_name(int r) { return "rack" + std::to_string(r); }

/// The cluster's own job takes the 12-bit block cap's maximum.
constexpr std::uint16_t kBuiltinBlockCntMax = 4095;

}  // namespace

Cluster::Cluster(ClusterSpec spec)
    : spec_(std::move(spec)),
      telem_(telemetry::or_disabled(spec_.telemetry)),
      tree_(build_aggregation_tree(spec_)),
      engine_(std::uint32_t(spec_.routers()), std::uint32_t(spec_.shards),
              spec_.fabric_link.latency) {
  const int racks = spec_.racks;
  const int wpr = spec_.workers_per_rack;

  // --- Routers --------------------------------------------------------------
  // One PFE per router; each leaf has a front-panel port per worker plus
  // the trunk (port `wpr`), the spine one trunk port per rack. The pid
  // slot doubles as the router's simulation-domain id.
  auto make_router = [&](int pid_router, const std::string& name,
                         int ports) {
    trio::TelemetryScope scope;
    scope.trace_pid_base = pid_router * kPidStride;
    scope.metric_prefix = name + ".";
    scope.process_prefix = scope.metric_prefix;
    return std::make_unique<trio::Router>(dsim(std::uint32_t(pid_router)),
                                          spec_.cal, 1, ports, telem_,
                                          std::move(scope), name);
  };
  spine_ = make_router(racks, "spine", std::max(1, racks));
  // The standby spine gets the pid slot after the primary; each leaf gets
  // one extra front-panel port for its standby trunk.
  if (spec_.backup_spine) {
    backup_spine_ = make_router(racks + 1, "spine-b", std::max(1, racks));
  }
  const int leaf_ports = wpr + 1 + (spec_.backup_spine ? 1 : 0);
  leaves_.reserve(std::size_t(racks));
  for (int r = 0; r < racks; ++r) {
    leaves_.push_back(make_router(r, rack_name(r), leaf_ports));
  }

  // --- Spine and standby spine: top-level job over one source per rack ---
  build_spine(/*backup=*/false);
  if (spec_.backup_spine) build_spine(/*backup=*/true);

  // --- Racks ----------------------------------------------------------------
  to_spine_nh_.reserve(std::size_t(racks));
  to_backup_spine_nh_.reserve(std::size_t(racks));
  leaf_apps_.reserve(std::size_t(racks));
  host_links_.reserve(std::size_t(racks * wpr));
  workers_.reserve(std::size_t(racks * wpr));
  fabric_links_.reserve(std::size_t(racks));
  for (const RackNode& node : tree_.racks) build_rack(node);

  // --- Per-rack trace summary rows ---------------------------------------
  if (telem_.tracer.enabled()) {
    for (int r = 0; r < racks; ++r) {
      telem_.tracer.set_process_name(kSummaryPidBase + r, rack_name(r));
    }
    telem_.tracer.set_process_name(kSummaryPidBase + racks, "spine");
  }
}

void Cluster::build_spine(bool backup) {
  trio::Router& router = backup ? *backup_spine_ : *spine_;
  auto& fwd = router.forwarding();
  std::uint32_t group_nh = 0;
  for (int r = 0; r < spec_.racks; ++r) {
    const std::uint32_t member = fwd.add_nexthop(
        trio::NexthopUnicast{r, trioml::aggregator_mac(r)});
    group_nh = fwd.join_group(tree_.result_group, member);
    fwd.add_route(tree_.racks[std::size_t(r)].agg_ip, 32, member);
  }
  (backup ? backup_spine_group_nh_ : spine_group_nh_) = group_nh;
  auto app =
      std::make_unique<trioml::TrioMlApp>(router.pfe(0), spec_.slab_pool);
  // Both spines aggregate at one address: failover rewrites leaf
  // nexthops only, the partial-Result destination IP never changes.
  app->set_aggregation_address(tree_.spine_ip);
  app->install();
  app->configure_job(spine_job(spec_.job_id, kBuiltinBlockCntMax, backup));
  (backup ? backup_spine_app_ : spine_app_) = std::move(app);
}

std::uint32_t Cluster::build_trunk(trio::Router& leaf, int r, bool backup) {
  // Partial Results ride ordinary IP forwarding up the trunk (paper §4),
  // the final multicast comes back down the same link. The trunk spans
  // two simulation domains, so each direction's transmit machinery runs
  // on its sender's shard and the receive crosses through the engine's
  // delivery band — bound unconditionally (also at 1 shard) so event
  // order is a property of the topology, not the shard count.
  trio::Router& spine = backup ? *backup_spine_ : *spine_;
  const std::uint32_t domain = backup ? backup_spine_domain() : spine_domain();
  const int port = backup ? backup_trunk_port() : trunk_port();
  const LinkSpec& fabric = spec_.fabric_link;
  auto trunk = std::make_unique<net::Link>(
      dsim(std::uint32_t(r)), dsim(domain), fabric.gbps, fabric.latency,
      fabric.queue_frames);
  trunk->bind_boundary(engine_, std::uint32_t(r), domain);
  trunk->attach(leaf, port, spine, r);
  leaf.attach_port(port, trunk->a_to_b());
  spine.attach_port(r, trunk->b_to_a());
  if (fabric.loss > 0) {
    trunk->set_loss(fabric.loss, fabric.loss_seed + (backup ? 0x10000 : 0) +
                                     std::uint64_t(r));
  }
  // Tier counters share one registry cell across all fabric links, so
  // "cluster.tier.fabric.up.tx_frames" is the tier total.
  trunk->a_to_b().instrument(telem_.metrics,
                             backup ? "cluster.tier.fabric_backup.up."
                                    : "cluster.tier.fabric.up.");
  trunk->b_to_a().instrument(telem_.metrics,
                             backup ? "cluster.tier.fabric_backup.down."
                                    : "cluster.tier.fabric.down.");
  const std::uint32_t nh = leaf.forwarding().add_nexthop(trio::NexthopUnicast{
      port, backup ? trioml::backup_spine_mac() : trioml::spine_mac()});
  (backup ? backup_fabric_links_ : fabric_links_).push_back(std::move(trunk));
  (backup ? to_backup_spine_nh_ : to_spine_nh_).push_back(nh);
  return nh;
}

void Cluster::build_rack(const RackNode& node) {
  const int r = node.rack;
  const int wpr = spec_.workers_per_rack;
  trio::Router& leaf = *leaves_[std::size_t(r)];
  auto& fwd = leaf.forwarding();

  fwd.add_route(tree_.spine_ip, 32, build_trunk(leaf, r, /*backup=*/false));
  // Standby trunk to the backup spine, pre-wired but unused until
  // fail_over_to_backup() rewrites the spine route onto it.
  if (spec_.backup_spine) build_trunk(leaf, r, /*backup=*/true);

  auto app = std::make_unique<trioml::TrioMlApp>(leaf.pfe(0), spec_.slab_pool);
  app->set_aggregation_address(node.agg_ip);
  app->install();
  app->configure_job(leaf_job(node, spec_.job_id, kBuiltinBlockCntMax));
  leaf_apps_.push_back(std::move(app));

  // Workers and host links; the leaf forwards the final-result multicast
  // group to every local worker port.
  for (int i = 0; i < wpr; ++i) {
    const std::uint32_t member =
        fwd.add_nexthop(trio::NexthopUnicast{i, trioml::worker_mac(r, i)});
    fwd.join_group(tree_.result_group, member);
    fwd.add_route(trioml::worker_ip(r, i), 32, member);

    // Worker and host link live in the leaf's domain: intra-domain
    // traffic never crosses shards, so the host tier keeps the cheap
    // single-simulator path.
    auto link = std::make_unique<net::Link>(dsim(std::uint32_t(r)),
                                            spec_.host_link.gbps,
                                            spec_.host_link.latency,
                                            spec_.host_link.queue_frames);
    trioml::TrioMlWorker::Config wc;
    wc.job_id = spec_.job_id;
    wc.src_id = node.worker_src_ids[std::size_t(i)];
    wc.ip = trioml::worker_ip(r, i);
    wc.mac = trioml::worker_mac(r, i);
    wc.agg_ip = node.agg_ip;
    wc.agg_mac = trioml::aggregator_mac(r);
    wc.window = spec_.window;
    wc.grads_per_packet = spec_.grads_per_packet;
    wc.expected_sources = tree_.expected_sources;
    auto worker = std::make_unique<trioml::TrioMlWorker>(
        dsim(std::uint32_t(r)), wc, link->a_to_b());
    link->attach(*worker, 0, leaf, i);
    leaf.attach_port(i, link->b_to_a());
    if (spec_.host_link.loss > 0) {
      link->set_loss(spec_.host_link.loss,
                     spec_.host_link.loss_seed +
                         std::uint64_t(r * wpr + i) * 2 + 1);
    }
    link->a_to_b().instrument(telem_.metrics, "cluster.tier.host.up.");
    link->b_to_a().instrument(telem_.metrics, "cluster.tier.host.down.");
    // Shared across workers: tier totals of the recovery-path counters
    // (retransmits, backoff re-arms, exhausted budgets, crashes).
    worker->instrument(telem_.metrics, "cluster.worker.");
    host_links_.push_back(std::move(link));
    workers_.push_back(std::move(worker));
  }
}

trioml::TrioMlApp::JobSetup Cluster::leaf_job(
    const RackNode& node, std::uint8_t job_id,
    std::uint16_t block_cnt_max) const {
  trioml::TrioMlApp::JobSetup job;
  job.job_id = job_id;
  job.src_ids = node.worker_src_ids;
  job.block_grad_max = spec_.grads_per_packet;
  job.block_cnt_max = block_cnt_max;
  job.block_exp_ms = spec_.block_exp_ms;
  job.out_src = node.agg_ip;
  job.out_dst = tree_.spine_ip;
  job.out_nh = on_backup_spine_ ? to_backup_spine_nexthop(node.rack)
                                : to_spine_nexthop(node.rack);
  job.out_src_id = node.uplink_src_id;
  return job;
}

trioml::TrioMlApp::JobSetup Cluster::spine_job(std::uint8_t job_id,
                                               std::uint16_t block_cnt_max,
                                               bool backup) const {
  trioml::TrioMlApp::JobSetup job;
  job.job_id = job_id;
  job.src_ids = tree_.spine_src_ids;
  job.block_grad_max = spec_.grads_per_packet;
  job.block_cnt_max = block_cnt_max;
  job.block_exp_ms = spec_.block_exp_ms;
  job.out_src = tree_.spine_ip;
  job.out_dst = tree_.result_group;
  job.out_nh = backup ? backup_spine_group_nh_ : spine_group_nh_;
  return job;
}

std::vector<trioml::TrioMlApp*> Cluster::apps() {
  std::vector<trioml::TrioMlApp*> out;
  out.reserve(leaf_apps_.size() + 2);
  for (auto& app : leaf_apps_) out.push_back(app.get());
  out.push_back(spine_app_.get());
  if (backup_spine_app_) out.push_back(backup_spine_app_.get());
  return out;
}

void Cluster::rehome_spine_tier(bool to_backup) {
  const auto& nhs = to_backup ? to_backup_spine_nh_ : to_spine_nh_;
  for (int r = 0; r < spec_.racks; ++r) {
    // add_route overwrites the existing /32, so partial Results taking
    // the IP-forwarding path re-home instantly...
    leaves_[std::size_t(r)]->forwarding().add_route(tree_.spine_ip, 32,
                                                    nhs[std::size_t(r)]);
    // ...and patching the job records re-homes the leaf app's own Result
    // emissions, including blocks already aggregating (the record's
    // egress nexthop is read at result time). Every configured job moves:
    // a failover re-homes all tenants, not just the cluster's primary
    // job (docs/jobs.md).
    for (std::uint8_t job : leaf_apps_[std::size_t(r)]->configured_jobs()) {
      leaf_apps_[std::size_t(r)]->retarget_job_output(job,
                                                      nhs[std::size_t(r)]);
    }
  }
  on_backup_spine_ = to_backup;
}

void Cluster::fail_over_to_backup() {
  if (!has_backup_spine()) {
    throw std::logic_error("Cluster: no backup spine configured");
  }
  rehome_spine_tier(/*to_backup=*/true);
}

void Cluster::restore_primary_spine() {
  if (!has_backup_spine()) return;
  rehome_spine_tier(/*to_backup=*/false);
}

void Cluster::start_straggler_detection(int threads, sim::Duration timeout) {
  for (trioml::TrioMlApp* app : apps()) {
    app->start_straggler_detection(threads, timeout);
  }
}

void Cluster::stop_straggler_detection() {
  for (trioml::TrioMlApp* app : apps()) app->stop_straggler_detection();
}

void Cluster::sample_trace_counters() {
  if (!telem_.tracer.enabled()) return;
  telemetry::Tracer& tracer = telem_.tracer;
  const sim::Time now = simulator().now();
  for (int r = 0; r < spec_.racks; ++r) {
    const int pid = kSummaryPidBase + r;
    auto& up = fabric_links_[std::size_t(r)]->a_to_b();
    tracer.counter(pid, "uplink", "tx_bytes", now, double(up.bytes_sent()));
    tracer.counter(pid, "uplink", "drops", now, double(up.frames_dropped()));
    tracer.counter(pid, "aggregation", "blocks_completed", now,
                   double(leaf_apps_[std::size_t(r)]->stats().blocks_completed));
  }
  tracer.counter(kSummaryPidBase + spec_.racks, "aggregation",
                 "blocks_completed", now,
                 double(spine_app_->stats().blocks_completed));
}

void Cluster::start_trace_sampling(sim::Duration period) {
  stop_trace_sampling();
  if (!telem_.tracer.enabled()) return;
  trace_sampling_ = true;
  trace_period_ = period;
  sample_trace_counters();
  // A global action: the sample reads every rack's counters, and the racks
  // run on different shards.
  engine_.schedule_global(engine_.now() + period, [this, epoch = trace_epoch_] {
    if (epoch != trace_epoch_) return;
    trace_sampling_ = false;
    start_trace_sampling(trace_period_);
  });
}

void Cluster::stop_trace_sampling() {
  if (!trace_sampling_) return;
  trace_sampling_ = false;
  ++trace_epoch_;
  sample_trace_counters();  // closing sample so the tracks reach the end
}

}  // namespace cluster
