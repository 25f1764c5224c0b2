// NetRpcApp: the per-PFE in-network RPC application (second tenant of the
// microcode substrate, alongside trioml's native aggregation app).
//
// Owns the control-plane side — per-tenant service records (pending-merge
// slot tables, the direct-mapped hot-key cache, nexthop tables, datapath
// counters) written into the Shared Memory System, the per-tenant
// *generated* Microcode datapath binary, and the aging timer threads —
// and chains itself onto the PFE's program factory: NetRPC frames of a
// configured tenant run the tenant's compiled datapath; everything else
// falls through to whatever factory was installed before (trioml, plain
// forwarding).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "microcode/interpreter.hpp"
#include "net/headers.hpp"
#include "netrpc/datapath.hpp"
#include "netrpc/layout.hpp"
#include "telemetry/metrics.hpp"
#include "trio/pfe.hpp"

namespace netrpc {

class NetRpcApp {
 public:
  explicit NetRpcApp(trio::Pfe& pfe);

  /// One tenant's service: geometry plus the egress plumbing the
  /// control plane resolved (nexthop ids per client/server) and the
  /// addressing the aging scan stamps on degraded responses it emits.
  struct ServiceSetup {
    ServiceConfig config;
    std::vector<std::uint32_t> client_nh;  // nexthop id per client_id
    std::vector<std::uint32_t> server_nh;  // nexthop id per server_id
    std::vector<net::Ipv4Addr> client_ips;
    net::Ipv4Addr service_ip;  // source IP of scan-emitted responses
    net::MacAddr service_mac{0x02, 0, 0, 0, 0, 0xee};
  };

  /// Allocates and presets the tenant's SMS state, generates and compiles
  /// its datapath program. Call before traffic; throws if the tenant is
  /// already configured or the setup is inconsistent.
  void configure_service(const ServiceSetup& setup);
  /// Removes the tenant: its cache presence entries are erased and its
  /// datapath stops matching. SMS regions are not reclaimed (bump
  /// allocator) — teardown accounting is the JobManager's release.
  void remove_service(std::uint8_t tenant);
  bool has_service(std::uint8_t tenant) const {
    return services_.count(tenant) != 0;
  }
  /// In-network assist on/off for one tenant: while bypassed, the
  /// tenant's frames take the plain forwarding path — no merge, no cache,
  /// every RPC_RESP rides to the client for a host-side reduce. This is
  /// the end-host-only deployment fig_netrpc compares against. Service
  /// state stays allocated; throws for unknown tenants.
  void set_bypass(std::uint8_t tenant, bool on);
  std::vector<std::uint8_t> configured_tenants() const;

  /// Worst-case SMS bytes the service occupies (admission charge).
  static std::uint64_t worst_case_bytes(const ServiceConfig& cfg) {
    return service_worst_case_bytes(cfg);
  }

  /// Chains the NetRPC program factory in front of the PFE's current one.
  void install();

  /// Starts the two aging timer threads (period each): one walks the
  /// pending-merge slots and completes stalled merges *degraded* (the
  /// run-to-completion answer to straggling servers — a partial merge is
  /// emitted with server_cnt = contributors and the degraded flag), the
  /// other ages the hot-key cache by check-and-clear REF scanning.
  void start_aging(sim::Duration period);
  void stop_aging();
  sim::Duration aging_period() const { return aging_period_; }

  // --- Fault hooks (src/faults/, docs/faults.md) -------------------------
  /// Models loss of the cache tier's state for one tenant: every presence
  /// entry is dropped from the hash table and the slot owners zeroed, so
  /// subsequent GETs miss (and refill) instead of reading stale slots.
  /// Returns the number of entries dropped.
  std::size_t drop_cache_entries(std::uint8_t tenant);

  // --- Datapath counters (SMS-resident, written by the microcode) --------
  std::uint64_t counter_packets(std::uint8_t tenant, CounterIdx idx) const;
  std::uint64_t counter_bytes(std::uint8_t tenant, CounterIdx idx) const;
  /// Live cache presence entries of the tenant (control-plane walk).
  std::size_t cache_entries(std::uint8_t tenant) const;

  struct Stats {
    std::uint64_t packets = 0;             // frames claimed by the datapath
    std::uint64_t dropped_no_service = 0;  // NetRPC frames, unknown tenant
    std::uint64_t degraded_emitted = 0;    // aged merges completed partial
    std::uint64_t pending_reset = 0;       // stale slots reclaimed by scan
    std::uint64_t cache_aged = 0;          // cache entries aged out
  };
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  /// Registry histogram of each datapath packet's time in the PFE
  /// (`pfe<N>.netrpc.pfe_latency_ns`); live only when telemetry is on.
  telemetry::Histogram pfe_latency_hist() { return pfe_latency_hist_; }

  trio::Pfe& pfe() { return pfe_; }

  // --- Introspection shared with the aging scan programs ------------------
  struct Service {
    ServiceConfig config;
    ServiceLayout layout;
    bool bypass = false;  // set_bypass: plain forwarding, no datapath
    std::shared_ptr<const microcode::CompiledProgram> program;
    std::vector<std::uint32_t> client_nh;
    std::vector<net::Ipv4Addr> client_ips;
    net::Ipv4Addr service_ip;
    net::MacAddr service_mac;
    /// Aging scan state: last observed arrived count per pending slot. A
    /// slot that holds the same nonzero count across two passes has
    /// stalled — its merge is completed degraded.
    std::vector<std::uint32_t> arrived_snapshot;
  };
  const Service* service(std::uint8_t tenant) const;
  Service* service_mut(std::uint8_t tenant);
  const std::map<std::uint8_t, Service>& services() const {
    return services_;
  }

 private:
  void preset_pending_slots(const Service& svc);

  trio::Pfe& pfe_;
  std::map<std::uint8_t, Service> services_;  // ordered: deterministic scans
  bool installed_ = false;
  int aging_group_ = -1;
  sim::Duration aging_period_;
  Stats stats_;
  telemetry::Histogram pfe_latency_hist_;
};

}  // namespace netrpc
