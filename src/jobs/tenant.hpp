// Tenant declarations for the multi-tenant job subsystem (docs/jobs.md).
//
// A TenantSpec describes one tenant to be admitted onto a shared Cluster:
// either a Trio-ML allreduce job (its TenantId doubles as the Trio-ML job
// id) or a best-effort background traffic generator. A JobsSpec is an
// ordered list of tenants, built programmatically or parsed from the
// line-oriented spec consumed by `trio-run --jobs FILE`:
//
//   # victim, a second job, an aggressor, and an RPC service
//   tenant 1 allreduce weight=4 grads=8192 window=64 blocks=256 sms=96M
//   tenant 2 allreduce weight=2 grads=8192
//   tenant 3 besteffort weight=1 load=0.9
//   tenant 4 netrpc policy=sum values=8 servers=3 calls=32 gets=64
//
// The text is read through the faults DSL's front end (dsl/lexer.hpp), so
// errors carry the line *and column* of the offending token in its style
// ("jobs DSL line 2 col 20: ... in \"...\""), and a number outside its
// field's range is an error, never a wrapped value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netrpc/wire_format.hpp"
#include "trio/router.hpp"

namespace jobs {

/// Tenants are identified by the Trio-ML job id they own: one byte, the
/// top byte of every hash-table key the tenant's blocks occupy.
using TenantId = std::uint8_t;

enum class TenantKind {
  kAllreduce,   // a Trio-ML in-network allreduce job
  kBestEffort,  // background traffic generator (no aggregation state)
  kNetRpc,      // in-network RPC aggregation + hot-key cache (src/netrpc/)
};

struct TenantSpec {
  TenantId id = 1;
  TenantKind kind = TenantKind::kAllreduce;
  /// Relative MQSS WDRR weight (>= 1) — `weight=N`.
  std::uint32_t weight = 1;
  /// Gradients per worker for one allreduce — `grads=N`.
  std::size_t grads = 4096;
  /// Streaming window (outstanding packets per worker) — `window=N`.
  std::uint32_t window = 64;
  /// Concurrent aggregation-block (bucket) quota per aggregator —
  /// `blocks=N`. This is the hash-table/bucket half of the tenant's
  /// admission quota; the datapath enforces it via the job's
  /// active-block counter.
  std::uint16_t block_cnt_max = 256;
  /// SMS byte quota per PFE — `sms=N` (suffixes K/M/G). 0 = unlimited.
  /// Admission reserves the job's worst-case footprint against it and
  /// rejects tenants that do not fit — never a mid-run failure.
  std::uint64_t sms_quota_bytes = 0;
  /// Best-effort offered load as a fraction of each host link — `load=F`.
  double load = 1.0;
  /// Fluid-mode eligibility — `fluid=0|1` (docs/fluid.md). Only
  /// best-effort tenants are demotable (their traffic is pure load with
  /// no aggregation state); `fluid=0` opts an aggressor out so it stays
  /// packet-simulated even under `--fluid`. Ignored for allreduce and
  /// netrpc tenants, whose RMW paths always need packet fidelity.
  bool fluid = true;

  // --- NetRPC tenants (src/netrpc/, docs/netrpc.md) ----------------------
  /// Response merge policy — `policy=sum|min|majority`.
  netrpc::MergePolicy rpc_policy = netrpc::MergePolicy::kSum;
  /// 32-bit value words per RPC — `values=N` (1..24).
  std::uint16_t rpc_value_words = 8;
  /// Replica fan-out — `servers=N`; replicas occupy the last N hosts.
  std::uint8_t rpc_servers = 3;
  /// Client hosts — `clients=N`; clients occupy the first N hosts.
  std::uint8_t rpc_clients = 1;
  /// Outstanding fan-out calls per client — `rpcwindow=N` (1..16, the
  /// PFE's pending-slot bound).
  std::uint32_t rpc_window = 8;
  /// Closed-loop workload per client — `calls=N` fan-out RPCs,
  /// `gets=N` hot-key GETs, `puts=N` writes, over `hotkeys=N` keys.
  std::uint32_t rpc_calls = 32;
  std::uint32_t rpc_gets = 64;
  std::uint32_t rpc_puts = 8;
  std::uint32_t rpc_hot_keys = 4;

  bool is_allreduce() const { return kind == TenantKind::kAllreduce; }
  bool is_netrpc() const { return kind == TenantKind::kNetRpc; }
};

struct JobsSpec {
  std::vector<TenantSpec> tenants;

  bool empty() const { return tenants.empty(); }
  std::size_t size() const { return tenants.size(); }

  /// Parses the tenant spec DSL above. Throws std::invalid_argument with
  /// the offending line and column on any syntax error or out-of-range
  /// number.
  static JobsSpec parse(const std::string& text);
  /// parse() over a file's contents; throws std::runtime_error when the
  /// file cannot be read.
  static JobsSpec load(const std::string& path);
};

const char* kind_name(TenantKind kind);

/// Per-tenant telemetry scope (docs/telemetry.md): everything a tenant's
/// hosts register carries the "tenant.<id>." metric prefix, so tenancy
/// and netrpc-as-tenant runs expose per-tenant counters side by side
/// ("tenant.4.retransmits", "tenant.4.cached_gets", ...). Trace pids for
/// per-tenant rows sit in a band far above the router scopes.
trio::TelemetryScope tenant_scope(TenantId id);

}  // namespace jobs
