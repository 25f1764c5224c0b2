#include "jobs/job_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/allreduce.hpp"
#include "faults/injector.hpp"
#include "jobs/fluid.hpp"
#include "sim/digest.hpp"
#include "trioml/addressing.hpp"

namespace jobs {
namespace {

/// Folds a value vector as its u32 length then its words.
void fold_values(sim::Digest& d, const std::vector<std::uint32_t>& values) {
  const std::uint32_t n = std::uint32_t(values.size());
  d.bytes(&n, sizeof(n)).bytes(values.data(),
                               values.size() * sizeof(std::uint32_t));
}

/// Deterministic PUT payload: depends only on (tenant, key, sequence, i),
/// so a solo and a co-tenant replay write — and later read back — the
/// same bytes (bit-identity checks, mirroring tenant_gradients).
std::vector<std::uint32_t> netrpc_put_values(TenantId id, std::uint64_t key,
                                             std::uint32_t seq,
                                             std::uint16_t words) {
  std::vector<std::uint32_t> out(words);
  for (std::uint16_t i = 0; i < words; ++i) {
    out[i] = std::uint32_t(key) * 1000003u + seq * 131u + i * 17u +
             std::uint32_t(id) * 7u + 1u;
  }
  return out;
}

}  // namespace

std::uint64_t TenantRun::digest() const {
  if (kind == TenantKind::kNetRpc) return netrpc.value_digest.value();
  return cluster::results_digest(results);
}

const TenantRun* MultiTenantRun::tenant(TenantId id) const {
  for (const auto& t : tenants) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

JobManager::JobManager(cluster::Cluster& cluster)
    : cluster_(cluster), sim_(cluster.simulator()) {
  // run()'s completion callbacks count finished workers and clients in
  // state shared by every tenant; at more than one shard they would fire
  // on different shard threads (docs/performance.md "When `--shards 1` is
  // required").
  if (cluster_.num_shards() > 1) {
    throw std::logic_error("JobManager: multi-tenant runs require --shards 1");
  }
  // Re-target every host downlink at a mux; the built-in worker keeps
  // receiving the cluster's own job through it, additional tenants
  // register their workers as they are admitted.
  const int workers = cluster_.num_workers();
  muxes_.reserve(std::size_t(workers));
  for (int g = 0; g < workers; ++g) {
    auto mux = std::make_unique<HostMux>("hostmux-" + std::to_string(g));
    cluster_.link(g).b_to_a().connect(*mux, 0);
    mux->add_endpoint(cluster_.spec().job_id, cluster_.worker(g), 0);
    muxes_.push_back(std::move(mux));
  }
}

std::vector<trio::SharedMemorySystem*> JobManager::aggregator_sms() {
  std::vector<trio::SharedMemorySystem*> out;
  for (int r = 0; r < cluster_.num_racks(); ++r) {
    out.push_back(&cluster_.leaf(r).pfe(0).sms());
  }
  out.push_back(&cluster_.spine().pfe(0).sms());
  if (cluster_.has_backup_spine()) {
    out.push_back(&cluster_.backup_spine().pfe(0).sms());
  }
  return out;
}

std::vector<trio::Router*> JobManager::routers() {
  std::vector<trio::Router*> out;
  for (int r = 0; r < cluster_.num_racks(); ++r) {
    out.push_back(&cluster_.leaf(r));
  }
  out.push_back(&cluster_.spine());
  if (cluster_.has_backup_spine()) out.push_back(&cluster_.backup_spine());
  return out;
}

trioml::TrioMlApp::JobSetup JobManager::leaf_setup(
    const TenantSpec& spec, const cluster::RackNode& node) const {
  trioml::TrioMlApp::JobSetup job;
  job.job_id = spec.id;
  job.src_ids = node.worker_src_ids;
  job.block_grad_max = cluster_.spec().grads_per_packet;
  job.block_cnt_max = spec.block_cnt_max;
  job.block_exp_ms = cluster_.spec().block_exp_ms;
  job.out_src = node.agg_ip;
  job.out_dst = cluster_.tree().spine_ip;
  job.out_nh = cluster_.on_backup_spine()
                   ? cluster_.to_backup_spine_nexthop(node.rack)
                   : cluster_.to_spine_nexthop(node.rack);
  job.out_src_id = node.uplink_src_id;
  return job;
}

trioml::TrioMlApp::JobSetup JobManager::spine_setup(const TenantSpec& spec,
                                                    bool backup) const {
  trioml::TrioMlApp::JobSetup job;
  job.job_id = spec.id;
  job.src_ids = cluster_.tree().spine_src_ids;
  job.block_grad_max = cluster_.spec().grads_per_packet;
  job.block_cnt_max = spec.block_cnt_max;
  job.block_exp_ms = cluster_.spec().block_exp_ms;
  job.out_src = cluster_.tree().spine_ip;
  job.out_dst = cluster_.tree().result_group;
  job.out_nh = backup ? cluster_.backup_spine_result_nexthop()
                      : cluster_.spine_result_nexthop();
  return job;
}

AdmissionResult JobManager::admit(const TenantSpec& spec) {
  if (spec.id == 0) return {false, "tenant id 0 is the untenanted class"};
  if (tenants_.count(spec.id)) {
    return {false,
            "tenant " + std::to_string(int(spec.id)) + " already admitted"};
  }

  Tenant tenant;
  tenant.spec = spec;

  if (spec.is_allreduce()) {
    tenant.adopted_builtin = spec.id == cluster_.spec().job_id;

    // --- Admission-time SMS quota check, all-or-nothing ------------------
    // The worst case is charged on *every* aggregating PFE before any job
    // record is written; a tenant that does not fit is rejected with the
    // cluster untouched.
    const std::uint64_t need = trioml::TrioMlApp::job_worst_case_bytes(
        leaf_setup(spec, cluster_.tree().racks.front()));
    auto sms = aggregator_sms();
    for (auto* s : sms) {
      if (spec.sms_quota_bytes > 0) {
        s->set_tenant_quota(spec.id, spec.sms_quota_bytes);
      }
    }
    for (std::size_t i = 0; i < sms.size(); ++i) {
      if (!sms[i]->reserve_tenant_bytes(spec.id, need)) {
        for (std::size_t j = 0; j < i; ++j) {
          sms[j]->release_tenant_bytes(spec.id, need);
        }
        return {false, "tenant " + std::to_string(int(spec.id)) +
                           ": worst-case footprint " + std::to_string(need) +
                           " B exceeds SMS quota " +
                           std::to_string(spec.sms_quota_bytes) + " B"};
      }
    }
    tenant.reserved_bytes = need;

    // --- Job records over the physical aggregation tree ------------------
    if (!tenant.adopted_builtin) {
      cluster_.spine_app().configure_job(spine_setup(spec, /*backup=*/false));
      if (cluster_.has_backup_spine()) {
        cluster_.backup_spine_app().configure_job(
            spine_setup(spec, /*backup=*/true));
      }
      for (const auto& node : cluster_.tree().racks) {
        cluster_.leaf_app(node.rack).configure_job(leaf_setup(spec, node));
      }

      // --- One worker per host, muxed onto the existing host links -------
      const int wpr = cluster_.workers_per_rack();
      for (const auto& node : cluster_.tree().racks) {
        for (int i = 0; i < wpr; ++i) {
          const int g = node.rack * wpr + i;
          trioml::TrioMlWorker::Config wc;
          wc.job_id = spec.id;
          wc.src_id = node.worker_src_ids[std::size_t(i)];
          wc.ip = trioml::worker_ip(node.rack, i);
          wc.mac = trioml::worker_mac(node.rack, i);
          wc.agg_ip = node.agg_ip;
          wc.agg_mac = trioml::aggregator_mac(node.rack);
          wc.udp_src_port = trioml::worker_udp_src_port(spec.id);
          wc.window = spec.window;
          wc.grads_per_packet = cluster_.spec().grads_per_packet;
          wc.expected_sources = cluster_.tree().expected_sources;
          auto worker = std::make_unique<trioml::TrioMlWorker>(
              sim_, wc, cluster_.link(g).a_to_b());
          if (cluster_.spec().telemetry) {
            worker->instrument(cluster_.spec().telemetry->metrics,
                               tenant_scope(spec.id).metric_prefix +
                                   "worker" + std::to_string(g) + ".");
          }
          muxes_[std::size_t(g)]->add_endpoint(spec.id, *worker, 0);
          tenant.workers.push_back(std::move(worker));
        }
      }
    }
  } else if (spec.is_netrpc()) {
    auto result = admit_netrpc(spec, tenant);
    if (!result.admitted) return result;
  } else {
    // Best-effort: one paced source per host, addressed up the tree (the
    // spine discards it) so it burns host-link and trunk bandwidth only.
    const int wpr = cluster_.workers_per_rack();
    for (const auto& node : cluster_.tree().racks) {
      for (int i = 0; i < wpr; ++i) {
        const int g = node.rack * wpr + i;
        BestEffortSource::Config bc;
        bc.tenant = spec.id;
        bc.eth_src = trioml::worker_mac(node.rack, i);
        bc.eth_dst = trioml::aggregator_mac(node.rack);
        bc.ip_src = trioml::worker_ip(node.rack, i);
        bc.ip_dst = cluster_.tree().spine_ip;
        bc.load = spec.load;
        tenant.sources.push_back(std::make_unique<BestEffortSource>(
            sim_, cluster_.link(g).a_to_b(), bc));
      }
    }
  }

  tenants_.emplace(spec.id, std::move(tenant));
  admission_order_.push_back(spec.id);
  if (isolation_) apply_weight(spec.id, spec.weight);
  return {true, ""};
}

AdmissionResult JobManager::admit_netrpc(const TenantSpec& spec,
                                         Tenant& tenant) {
  // Placement: clients on the first hosts of rack 0, servers on the last —
  // every request and every response then crosses leaf(0)'s PFE exactly
  // once, which is where the service's datapath and SMS state live. (Leaf
  // routers only hold /32 routes for their own rack's hosts, so a service
  // spanning racks would need spine routes the tree does not install.)
  const int wpr = cluster_.workers_per_rack();
  const int hosts_needed = int(spec.rpc_clients) + int(spec.rpc_servers);
  if (hosts_needed > wpr) {
    return {false, "tenant " + std::to_string(int(spec.id)) + ": " +
                       std::to_string(int(spec.rpc_clients)) + " clients + " +
                       std::to_string(int(spec.rpc_servers)) +
                       " servers exceed rack 0's " + std::to_string(wpr) +
                       " hosts"};
  }

  netrpc::ServiceConfig cfg;
  cfg.tenant = spec.id;
  cfg.policy = spec.rpc_policy;
  cfg.value_words = std::uint8_t(spec.rpc_value_words);
  cfg.server_cnt = spec.rpc_servers;
  cfg.client_cnt = spec.rpc_clients;
  cfg.window = std::uint16_t(spec.rpc_window);

  // Same admission discipline as allreduce: the worst case is reserved
  // against the tenant's quota before any state is written — but only on
  // leaf(0)'s SMS, the one PFE hosting the service.
  trio::SharedMemorySystem& sms = cluster_.leaf(0).pfe(0).sms();
  const std::uint64_t need = netrpc::NetRpcApp::worst_case_bytes(cfg);
  if (spec.sms_quota_bytes > 0) {
    sms.set_tenant_quota(spec.id, spec.sms_quota_bytes);
  }
  if (!sms.reserve_tenant_bytes(spec.id, need)) {
    return {false, "tenant " + std::to_string(int(spec.id)) +
                       ": worst-case footprint " + std::to_string(need) +
                       " B exceeds SMS quota " +
                       std::to_string(spec.sms_quota_bytes) + " B"};
  }
  tenant.reserved_bytes = need;

  if (!netrpc_app_) {
    netrpc_app_ = std::make_unique<netrpc::NetRpcApp>(cluster_.leaf(0).pfe(0));
    netrpc_app_->install();
    netrpc_app_->start_aging(netrpc_aging_);
  }

  const cluster::RackNode& node = cluster_.tree().racks.front();
  trio::ForwardingTable& fwd = cluster_.leaf(0).forwarding();

  netrpc::NetRpcApp::ServiceSetup setup;
  setup.config = cfg;
  setup.service_ip = node.agg_ip;
  setup.service_mac = trioml::aggregator_mac(0);
  for (int c = 0; c < int(spec.rpc_clients); ++c) {
    setup.client_ips.push_back(trioml::worker_ip(0, c));
    setup.client_nh.push_back(*fwd.lookup(trioml::worker_ip(0, c)));
  }
  std::vector<net::Ipv4Addr> server_ips;
  std::vector<net::MacAddr> server_macs;
  for (int s = 0; s < int(spec.rpc_servers); ++s) {
    const int local = wpr - int(spec.rpc_servers) + s;
    server_ips.push_back(trioml::worker_ip(0, local));
    server_macs.push_back(trioml::worker_mac(0, local));
    setup.server_nh.push_back(*fwd.lookup(server_ips.back()));
  }
  try {
    netrpc_app_->configure_service(setup);
  } catch (const std::exception& e) {
    sms.release_tenant_bytes(spec.id, need);
    tenant.reserved_bytes = 0;
    return {false, "tenant " + std::to_string(int(spec.id)) + ": " + e.what()};
  }

  telemetry::Telemetry* telem = cluster_.spec().telemetry;
  const std::string scope = tenant_scope(spec.id).metric_prefix;

  for (int s = 0; s < int(spec.rpc_servers); ++s) {
    const int g = wpr - int(spec.rpc_servers) + s;  // rack 0: local == global
    netrpc::RpcServer::Config sc;
    sc.tenant = spec.id;
    sc.server_id = std::uint8_t(s);
    sc.ip = server_ips[std::size_t(s)];
    sc.mac = server_macs[std::size_t(s)];
    sc.value_words = spec.rpc_value_words;
    auto server = std::make_unique<netrpc::RpcServer>(
        sim_, sc, cluster_.link(g).a_to_b());
    // Seed the hot keys on every replica so first-touch GETs hit real
    // values regardless of which replica is a key's home.
    for (std::uint32_t k = 0; k < spec.rpc_hot_keys; ++k) {
      server->preload(k, netrpc_put_values(spec.id, k, 0,
                                           spec.rpc_value_words));
    }
    muxes_[std::size_t(g)]->add_endpoint(spec.id, *server, 0);
    tenant.server_hosts.push_back(g);
    tenant.rpc_servers.push_back(std::move(server));
  }

  for (int c = 0; c < int(spec.rpc_clients); ++c) {
    netrpc::RpcClient::Config cc;
    cc.tenant = spec.id;
    cc.client_id = std::uint8_t(c);
    cc.ip = trioml::worker_ip(0, c);
    cc.mac = trioml::worker_mac(0, c);
    cc.server_ips = server_ips;
    cc.server_macs = server_macs;
    cc.policy = spec.rpc_policy;
    cc.value_words = spec.rpc_value_words;
    cc.window = spec.rpc_window;
    cc.retransmit = true;
    auto client = std::make_unique<netrpc::RpcClient>(
        sim_, cc, cluster_.link(c).a_to_b());
    if (telem) {
      client->instrument(telem->metrics,
                         scope + "client" + std::to_string(c) + ".");
    }
    muxes_[std::size_t(c)]->add_endpoint(spec.id, *client, 0);
    tenant.client_hosts.push_back(c);
    tenant.rpc_clients.push_back(std::move(client));
  }
  return {true, ""};
}

AdmissionResult JobManager::admit_all(const JobsSpec& spec) {
  for (const auto& tenant : spec.tenants) {
    auto result = admit(tenant);
    if (!result.admitted) return result;
  }
  return {true, ""};
}

void JobManager::apply_weight(TenantId id, std::uint32_t weight) {
  for (auto* router : routers()) router->set_tenant_weight(id, weight);
}

void JobManager::enable_isolation(std::uint32_t partitions,
                                  std::size_t queue_frames) {
  if (isolation_) return;
  isolation_ = true;
  qos_queue_frames_ = queue_frames;
  for (auto* router : routers()) {
    router->pfe(0).hash_table().enable_key_partitions(partitions);
    router->enable_tenant_qos(
        [](const net::Packet& pkt) {
          return trioml::tenant_of_frame(pkt.frame());
        },
        queue_frames);
    // The untenanted class first, then every admitted tenant in admission
    // order: WDRR visit order is registration order, so replays are
    // deterministic.
    router->set_tenant_weight(0, 1);
  }
  for (TenantId id : admission_order_) {
    apply_weight(id, tenants_.at(id).spec.weight);
  }
}

std::vector<std::vector<std::uint32_t>> JobManager::tenant_gradients(
    TenantId id, int workers, std::size_t grads_per_worker) {
  std::vector<std::vector<std::uint32_t>> out(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto& g = out[std::size_t(w)];
    g.resize(grads_per_worker);
    for (std::size_t j = 0; j < grads_per_worker; ++j) {
      // Depends only on (tenant, worker, j): a tenant's stream is the
      // same whether it runs solo or beside neighbours (bit-identity).
      g[j] = std::uint32_t(w * 37 + int(j % 11) + 1 + int(id) * 131);
    }
  }
  return out;
}

trioml::TrioMlWorker* JobManager::tenant_worker(int tenant, int host) {
  if (tenant < 0 || tenant > 255) return nullptr;
  if (host < 0 || host >= cluster_.num_workers()) return nullptr;
  auto it = tenants_.find(TenantId(tenant));
  if (it == tenants_.end() || it->second.torn_down) return nullptr;
  if (!it->second.spec.is_allreduce()) return nullptr;
  if (it->second.adopted_builtin) return &cluster_.worker(host);
  return it->second.workers[std::size_t(host)].get();
}

netrpc::RpcServer* JobManager::tenant_rpc_server(int tenant, int host) {
  if (tenant < 0 || tenant > 255) return nullptr;
  auto it = tenants_.find(TenantId(tenant));
  if (it == tenants_.end() || it->second.torn_down) return nullptr;
  const Tenant& t = it->second;
  for (std::size_t i = 0; i < t.server_hosts.size(); ++i) {
    if (t.server_hosts[i] == host) return t.rpc_servers[i].get();
  }
  return nullptr;
}

netrpc::RpcClient* JobManager::tenant_rpc_client(int tenant, int host) {
  if (tenant < 0 || tenant > 255) return nullptr;
  auto it = tenants_.find(TenantId(tenant));
  if (it == tenants_.end() || it->second.torn_down) return nullptr;
  const Tenant& t = it->second;
  for (std::size_t i = 0; i < t.client_hosts.size(); ++i) {
    if (t.client_hosts[i] == host) return t.rpc_clients[i].get();
  }
  return nullptr;
}

void JobManager::bind_fault_injector(faults::FaultInjector& injector) {
  injector.set_tenant_worker_resolver(
      [this](int tenant, int host) { return tenant_worker(tenant, host); });
  // NetRPC tenants share the same `tenant=` crash/restart syntax; their
  // endpoints are tried first (a host carries at most one endpoint per
  // tenant, so there is no ambiguity with allreduce workers).
  injector.set_tenant_host_handler([this](int tenant, int host, bool restart) {
    if (auto* c = tenant_rpc_client(tenant, host)) {
      restart ? c->restart() : c->crash();
      return true;
    }
    if (auto* s = tenant_rpc_server(tenant, host)) {
      restart ? s->restart() : s->crash();
      return true;
    }
    return false;
  });
  // kBucketDrop aimed at a netrpc tenant destroys its hot-key cache
  // presence entries instead of (nonexistent) aggregation blocks.
  injector.set_cache_dropper([this](std::uint8_t tenant) -> std::size_t {
    if (!netrpc_app_ || !netrpc_app_->has_service(tenant)) return 0;
    return netrpc_app_->drop_cache_entries(tenant);
  });
}

void JobManager::enable_fluid(FluidController& controller) {
  fluid_ = &controller;
}

MultiTenantRun JobManager::run(std::uint16_t gen_id, sim::Time deadline) {
  MultiTenantRun run;
  run.tenants.reserve(admission_order_.size());
  const int workers = cluster_.num_workers();
  int remaining = 0;

  for (TenantId id : admission_order_) {
    const Tenant& tenant = tenants_.at(id);
    if (tenant.torn_down) continue;
    TenantRun tr;
    tr.id = id;
    tr.kind = tenant.spec.kind;
    tr.start = sim_.now();
    tr.finish = sim_.now();
    if (tenant.spec.is_allreduce()) {
      tr.results.resize(std::size_t(workers));
      remaining += workers;
    } else if (tenant.spec.is_netrpc()) {
      remaining += int(tenant.spec.rpc_clients);
    }
    run.tenants.push_back(std::move(tr));
  }

  // Start every tenant after run.tenants is final (the completion
  // callbacks hold references into it).
  for (auto& tr : run.tenants) {
    if (tr.kind == TenantKind::kNetRpc) {
      start_netrpc_tenant(tr, tenants_.at(tr.id), remaining);
      continue;
    }
    if (tr.kind != TenantKind::kAllreduce) continue;
    const Tenant& tenant = tenants_.at(tr.id);
    auto grads = tenant_gradients(tr.id, workers, tenant.spec.grads);
    for (int w = 0; w < workers; ++w) {
      trioml::TrioMlWorker* worker = tenant_worker(tr.id, w);
      worker->start_allreduce(
          std::move(grads[std::size_t(w)]), gen_id,
          [this, &tr, &remaining, w](trioml::AllreduceResult res) {
            tr.results[std::size_t(w)] = std::move(res);
            ++tr.finished;
            tr.finish = sim_.now();
            --remaining;
          });
    }
  }
  for (TenantId id : admission_order_) {
    Tenant& tenant = tenants_.at(id);
    if (tenant.torn_down) continue;
    if (fluid_ && tenant.spec.kind == TenantKind::kBestEffort &&
        tenant.spec.fluid) {
      // Demoted to fluid mode (docs/fluid.md): one background stream per
      // host instead of per-host packet sources. Registration happens
      // once; the controller's fidelity boundaries re-materialise the
      // stream as real frames inside fault/recovery windows.
      if (std::find(fluid_adopted_.begin(), fluid_adopted_.end(), id) ==
          fluid_adopted_.end()) {
        for (int g = 0; g < workers; ++g) {
          fluid_->add_background_stream(g, id, tenant.spec.load);
        }
        fluid_adopted_.push_back(id);
      }
      continue;
    }
    for (auto& source : tenant.sources) {
      source->start(sim_.now(), deadline);
    }
  }

  // Best-effort sources (and fluid wakeups) keep the event queue
  // non-empty, so poll the completion count instead of waiting for a
  // drain.
  sim_.run_until_done(deadline, [&remaining] { return remaining <= 0; });
  for (TenantId id : admission_order_) {
    for (auto& source : tenants_.at(id).sources) source->stop();
  }
  if (fluid_) fluid_->stop();
  for (auto& tr : run.tenants) {
    const bool incomplete =
        (tr.kind == TenantKind::kAllreduce && tr.finished < workers) ||
        (tr.kind == TenantKind::kNetRpc &&
         tr.finished < int(tenants_.at(tr.id).spec.rpc_clients));
    if (incomplete) tr.finish = sim_.now();
  }
  run.finish = sim_.now();
  return run;
}

void JobManager::start_netrpc_tenant(TenantRun& tr, Tenant& tenant,
                                     int& remaining) {
  const TenantSpec& spec = tenant.spec;
  // Closed-loop per client: PUTs (seed + cache invalidation), then GETs
  // over the hot keys (the cache-hit phase), then `calls` windowed
  // fan-out RPCs. Every completed op folds its returned values into the
  // tenant's digest in completion order.
  for (auto& client_ptr : tenant.rpc_clients) {
    netrpc::RpcClient* client = client_ptr.get();
    struct Drive {
      std::uint32_t put_i = 0, get_i = 0, call_i = 0, inflight = 0;
      std::function<void()> pump;  // cleared at finish (breaks the cycle)
    };
    auto d = std::make_shared<Drive>();
    const std::uint32_t puts = spec.rpc_puts;
    const std::uint32_t gets = spec.rpc_gets;
    const std::uint32_t calls = spec.rpc_calls;
    const std::uint32_t hot = spec.rpc_hot_keys;
    const std::uint16_t words = spec.rpc_value_words;
    const TenantId id = spec.id;
    d->pump = [this, &tr, &remaining, client, d, puts, gets, calls, hot,
               words, id] {
      if (d->put_i < puts) {
        const std::uint32_t seq = d->put_i++;
        const std::uint64_t key = seq % hot;
        client->put(key, netrpc_put_values(id, key, seq + 1, words),
                    [this, &tr, d, key](netrpc::PutResult) {
                      ++tr.netrpc.puts;
                      tr.netrpc.value_digest.bytes(&key, sizeof(key));
                      d->pump();
                    });
        return;
      }
      if (d->get_i < gets) {
        const std::uint64_t key = d->get_i++ % hot;
        client->get(key, [this, &tr, d](netrpc::GetResult res) {
          ++tr.netrpc.gets;
          if (res.cached) {
            ++tr.netrpc.cached_gets;
            tr.netrpc.get_hit_latency_us.add(res.latency.us());
          } else {
            tr.netrpc.get_miss_latency_us.add(res.latency.us());
          }
          fold_values(tr.netrpc.value_digest, res.values);
          d->pump();
        });
        return;
      }
      while (d->call_i < calls && client->can_call()) {
        const std::uint32_t seq = d->call_i++;
        ++d->inflight;
        client->call(netrpc_put_values(id, 0x1000 + seq % 16, seq, words),
                     [this, &tr, d](netrpc::CallResult res) {
                       --d->inflight;
                       ++tr.netrpc.calls;
                       if (res.degraded) ++tr.netrpc.degraded;
                       tr.netrpc.call_latency_us.add(res.latency.us());
                       const std::uint8_t meta[2] = {
                           res.server_cnt,
                           std::uint8_t(res.degraded ? 1 : 0)};
                       tr.netrpc.value_digest.bytes(meta, sizeof(meta));
                       fold_values(tr.netrpc.value_digest, res.values);
                       d->pump();
                     });
      }
      if (d->call_i >= calls && d->inflight == 0) {
        ++tr.finished;
        tr.finish = sim_.now();
        --remaining;
        // Move the closure out before destroying it: `pump` IS the
        // currently-executing lambda, so it must stay alive to the end
        // of this scope while the shared cycle is broken.
        auto self = std::move(d->pump);
        return;
      }
    };
    // A crash wipes every in-flight op *and its completion callback* —
    // the pump chain is severed. Re-prime it when the client restarts
    // (in-flight calls died with the crash, so the window is empty).
    client->set_restart_hook([d] {
      if (!d->pump) return;  // loop already completed
      d->inflight = 0;
      d->pump();
    });
    d->pump();
  }
}

void JobManager::teardown(TenantId id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end() || it->second.torn_down) return;
  Tenant& tenant = it->second;
  if (tenant.spec.is_allreduce()) {
    for (int h = 0; h < cluster_.num_workers(); ++h) {
      if (auto* w = tenant_worker(id, h)) w->crash();
    }
    for (auto* app : cluster_.apps()) {
      app->drop_active_blocks(id);
      if (!tenant.adopted_builtin && app->has_job(id)) app->remove_job(id);
    }
    for (auto* s : aggregator_sms()) {
      s->release_tenant_bytes(id, tenant.reserved_bytes);
    }
  } else if (tenant.spec.is_netrpc()) {
    for (auto& c : tenant.rpc_clients) c->crash();
    for (auto& s : tenant.rpc_servers) s->crash();
    if (netrpc_app_) netrpc_app_->remove_service(id);
    cluster_.leaf(0).pfe(0).sms().release_tenant_bytes(id,
                                                      tenant.reserved_bytes);
  } else {
    for (auto& source : tenant.sources) source->stop();
  }
  // The Tenant (and its workers) stays allocated: simulator callbacks may
  // still reference the crashed workers. It is simply no longer runnable.
  tenant.torn_down = true;
}

std::vector<TenantId> JobManager::admitted() const {
  std::vector<TenantId> out;
  for (TenantId id : admission_order_) {
    if (!tenants_.at(id).torn_down) out.push_back(id);
  }
  return out;
}

const TenantSpec* JobManager::tenant_spec(TenantId id) const {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second.spec;
}

}  // namespace jobs
