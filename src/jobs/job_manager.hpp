// JobManager: admits N tenants onto one shared Cluster (docs/jobs.md).
//
// Each tenant is either a Trio-ML allreduce job — instantiated as its own
// job record on every aggregator of the physical tree, with its own
// per-host workers multiplexed onto the existing host links — or a
// best-effort background traffic generator. Admission is all-or-nothing:
// the tenant's worst-case SMS footprint is reserved on every aggregating
// PFE against its byte quota *before* any job record is written, so an
// admitted tenant can never be starved of aggregation memory mid-run, and
// a tenant that does not fit is rejected at admission time, never killed
// mid-run.
//
// enable_isolation() turns on the two datapath isolation mechanisms:
// per-tenant hash-table key partitions (HwHashTable::enable_key_partitions
// — an aggressor filling its buckets cannot evict a victim's) and
// MQSS-backed weighted per-tenant egress queueing on every router
// (trio::Router::enable_tenant_qos), with each tenant's WDRR weight taken
// from its TenantSpec. Both are off by default, matching the
// single-tenant Cluster behaviour bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "jobs/best_effort.hpp"
#include "jobs/host_mux.hpp"
#include "jobs/tenant.hpp"
#include "netrpc/app.hpp"
#include "netrpc/host.hpp"
#include "sim/digest.hpp"

namespace faults {
class FaultInjector;
}

namespace jobs {

class FluidController;

struct AdmissionResult {
  bool admitted = false;
  std::string reason;  // populated on rejection
};

/// A NetRPC tenant's workload outcome (closed-loop driver per client).
struct NetRpcRun {
  std::uint64_t calls = 0;          // fan-out RPCs completed
  std::uint64_t degraded = 0;       // completed partial by the aging scan
  std::uint64_t gets = 0;
  std::uint64_t cached_gets = 0;    // answered by the PFE's hot-key cache
  std::uint64_t puts = 0;
  /// Every completed op's merged/returned values in completion order —
  /// the netrpc golden digest.
  sim::Digest value_digest;
  sim::Samples call_latency_us;
  sim::Samples get_hit_latency_us;
  sim::Samples get_miss_latency_us;
};

/// One tenant's outcome from JobManager::run(): the allreduce slots and
/// rollups of cluster::AllreduceRun (`results` empty for best-effort and
/// netrpc tenants; `finished` counts netrpc clients), plus the netrpc
/// workload outcome.
struct TenantRun : cluster::AllreduceRun {
  TenantId id = 0;
  TenantKind kind = TenantKind::kAllreduce;
  /// Populated for netrpc tenants only.
  NetRpcRun netrpc;

  /// sim::Digest fingerprint: cluster::results_digest() for allreduce
  /// tenants, over every op's values in completion order for netrpc
  /// tenants (equal across deterministic replays).
  std::uint64_t digest() const;
};

struct MultiTenantRun {
  std::vector<TenantRun> tenants;  // admission order
  sim::Time finish;

  const TenantRun* tenant(TenantId id) const;
};

class JobManager {
 public:
  /// Installs a HostMux on every host downlink (the Cluster's built-in
  /// workers keep receiving their job's traffic through it). The cluster
  /// must outlive the manager; it may run at any shard count: every
  /// per-host endpoint lives on its host's domain simulator.
  explicit JobManager(cluster::Cluster& cluster);

  /// Admits one tenant. Allreduce tenants get a job record on every
  /// aggregator and a worker per host; best-effort tenants get one paced
  /// traffic source per host. Rejections (duplicate id, SMS quota
  /// exceeded) leave the cluster untouched.
  AdmissionResult admit(const TenantSpec& spec);
  /// admit() for every tenant of `spec`, stopping at the first rejection.
  AdmissionResult admit_all(const JobsSpec& spec);

  /// Turns on per-tenant fabric isolation on every router: hash-table key
  /// partitioning (`partitions` slices; tenants with distinct ids modulo
  /// `partitions` cannot evict each other's buckets) and MQSS weighted
  /// per-tenant egress queues (MqssTenantScheduler::kQueueFrames per
  /// tenant per port). Admitted tenants' weights are applied; later
  /// admissions register theirs on entry.
  void enable_isolation(std::uint32_t partitions = 8);
  bool isolation_enabled() const { return isolation_; }

  /// Runs every admitted tenant concurrently: each allreduce tenant's
  /// workers stream tenant_gradients() for generation `gen_id`, each
  /// best-effort tenant offers its configured load, until every allreduce
  /// worker and netrpc client finished or `deadline` (checked with the
  /// engine parked, every 1 ms of simulated time).
  MultiTenantRun run(std::uint16_t gen_id, sim::Time deadline);

  /// The deterministic per-worker gradients tenant `id` streams — a
  /// tenant-salted variant of cluster::patterned_gradients, identical
  /// between a solo and a multi-tenant run (bit-identity checks).
  static std::vector<std::vector<std::uint32_t>> tenant_gradients(
      TenantId id, int workers, std::size_t grads_per_worker);

  /// Tenant `tenant`'s worker on host `host` (rack-major global index);
  /// null when the tenant has no worker there. The cluster's built-in
  /// workers answer for the cluster's own job id once that tenant is
  /// admitted.
  trioml::TrioMlWorker* tenant_worker(int tenant, int host);

  // --- NetRPC tenants (src/netrpc/, docs/netrpc.md) ----------------------
  /// The NetRpcApp on rack 0's leaf PFE — created by the first netrpc
  /// admission (clients occupy the first hosts, so every request and
  /// every response crosses that PFE exactly once). Null before then.
  netrpc::NetRpcApp* netrpc_app() { return netrpc_app_.get(); }
  /// Tenant `tenant`'s RPC server / client on host `host`; null when the
  /// tenant has no such endpoint there.
  netrpc::RpcServer* tenant_rpc_server(int tenant, int host);
  netrpc::RpcClient* tenant_rpc_client(int tenant, int host);
  /// Aging period of the netrpc pending/cache scans (applied when the
  /// app is created; call before the first netrpc admission to change).
  void set_netrpc_aging(sim::Duration period) { netrpc_aging_ = period; }

  /// Routes `tenant=` qualified crash/restart fault events to this
  /// manager's per-tenant workers (docs/faults.md).
  void bind_fault_injector(faults::FaultInjector& injector);

  /// Adopts `controller` as the fluid fidelity boundary (docs/fluid.md):
  /// run() demotes every eligible best-effort tenant (spec.fluid, the
  /// default) to a fluid background stream per host instead of starting
  /// its packet sources, and stops the controller when the run ends.
  /// Ineligible (`fluid=0`) tenants keep their packet sources. A
  /// controller serves one run: once a run has stopped it, run() throws
  /// std::logic_error until a fresh controller is enabled.
  void enable_fluid(FluidController& controller);
  bool fluid_enabled() const { return fluid_ != nullptr; }

  /// Tenant-scoped teardown: crashes the tenant's workers, drops its
  /// active blocks and removes its job record on every aggregator, and
  /// releases its SMS reservation. Other tenants are untouched. No-op for
  /// unknown ids.
  void teardown(TenantId id);

  std::vector<TenantId> admitted() const;
  const TenantSpec* tenant_spec(TenantId id) const;
  HostMux& host_mux(int host) { return *muxes_.at(std::size_t(host)); }

 private:
  struct Tenant {
    TenantSpec spec;
    /// Owned per-host workers (empty when the tenant adopted the
    /// cluster's built-in workers or is best-effort).
    std::vector<std::unique_ptr<trioml::TrioMlWorker>> workers;
    std::vector<std::unique_ptr<BestEffortSource>> sources;
    /// NetRPC endpoints: clients on the first hosts, servers on the
    /// last (indexes in client_hosts/server_hosts).
    std::vector<std::unique_ptr<netrpc::RpcClient>> rpc_clients;
    std::vector<std::unique_ptr<netrpc::RpcServer>> rpc_servers;
    std::vector<int> client_hosts;
    std::vector<int> server_hosts;
    /// Bytes reserved per aggregating PFE at admission.
    std::uint64_t reserved_bytes = 0;
    bool adopted_builtin = false;
    /// teardown() leaves the Tenant allocated (simulator callbacks may
    /// still reference its crashed workers) but no longer runnable.
    bool torn_down = false;
  };

  std::vector<trio::SharedMemorySystem*> aggregator_sms();
  std::vector<trio::Router*> routers();
  void apply_weight(TenantId id, std::uint32_t weight);
  AdmissionResult admit_netrpc(const TenantSpec& spec, Tenant& tenant);
  void start_netrpc_tenant(TenantRun& run, Tenant& tenant);
  /// The simulator of host `host`'s domain (its leaf's).
  sim::Simulator& host_sim(int host) {
    return cluster_.engine().domain_sim(
        std::uint32_t(host / cluster_.workers_per_rack()));
  }

  cluster::Cluster& cluster_;
  sim::Simulator& sim_;
  FluidController* fluid_ = nullptr;
  std::vector<std::unique_ptr<HostMux>> muxes_;  // by global worker
  std::map<TenantId, Tenant> tenants_;           // ordered: admission replay
  std::vector<TenantId> admission_order_;
  bool isolation_ = false;
  std::unique_ptr<netrpc::NetRpcApp> netrpc_app_;
  sim::Duration netrpc_aging_ = sim::Duration::micros(200);
};

}  // namespace jobs
