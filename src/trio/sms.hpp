// Trio's Shared Memory System (paper §2.3).
//
// A single unified byte-address space backed by three physical tiers —
// on-chip SRAM, off-chip DRAM behind an on-chip cache, and raw off-chip
// DRAM capacity — that differ only in latency. The space is interleaved
// across banks at 64-byte granularity; each bank has its own
// read-modify-write engine that serialises every access to its address
// range, which is what gives Trio consistent high-rate updates without
// cache-coherence traffic.
//
// Timing model: requests are applied *functionally* in arrival order (the
// engines are FIFO per bank, and simulation arrival order is the bank
// arrival order), while the reply time is computed analytically:
//
//   reply_at = max(arrive, bank_free) + service_cycles + tier_latency
//
// so queueing delay (backpressure through the crossbar) emerges when a
// bank is oversubscribed. Posted operations (writes, counter increments,
// vector adds) need no reply event at all, keeping the event count low.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trio/calibration.hpp"
#include "trio/xtxn.hpp"

namespace trio {

/// Layout of a policer record in shared memory (32 bytes): a token bucket
/// updated by the RMW engine on each PolicerCheck.
struct PolicerConfig {
  std::uint64_t rate_bytes_per_sec = 0;
  std::uint64_t burst_bytes = 0;
};

class SharedMemorySystem {
 public:
  SharedMemorySystem(sim::Simulator& simulator, const Calibration& cal);

  /// Issues a request arriving at the SMS now. The state change is applied
  /// immediately (arrival order == engine order); `cb`, if non-null, fires
  /// at the computed reply time. Returns the reply time.
  sim::Time issue(const XtxnRequest& req, XtxnCallback cb);

  // --- Direct (zero-time) access for control-plane setup and tests -------
  std::uint8_t peek_u8(std::uint64_t addr) const;
  std::uint64_t peek_u64(std::uint64_t addr) const;   // little-endian
  std::uint32_t peek_u32(std::uint64_t addr) const;   // little-endian
  void poke_u8(std::uint64_t addr, std::uint8_t v);
  void poke_u32(std::uint64_t addr, std::uint32_t v);
  void poke_u64(std::uint64_t addr, std::uint64_t v);
  void poke_bytes(std::uint64_t addr, const std::vector<std::uint8_t>& data);
  std::vector<std::uint8_t> peek_bytes(std::uint64_t addr,
                                       std::size_t len) const;

  /// Initialises a policer record at `addr` (32 bytes).
  void configure_policer(std::uint64_t addr, const PolicerConfig& config);

  // --- Region allocation (control plane) ---------------------------------
  /// Bump-allocates from on-chip SRAM / from DRAM. Throws when exhausted.
  std::uint64_t alloc_sram(std::size_t bytes, std::size_t align = 8);
  std::uint64_t alloc_dram(std::size_t bytes, std::size_t align = 8);

  std::uint64_t sram_base() const { return 0; }
  std::uint64_t dram_base() const { return cal_.sram_bytes; }

  // --- Per-tenant byte accounting (multi-tenant admission, docs/jobs.md) --
  // The SMS is the scarce shared resource tenants compete for: every slab,
  // job record and working buffer a tenant's aggregation state occupies is
  // charged against its account. Quotas are enforced at *reservation* time
  // (the JobManager reserves a tenant's worst-case footprint at admission),
  // never mid-run, so an admitted job can always finish.
  /// Sets tenant's byte quota (default: unlimited). Lowering a quota below
  /// current usage only affects future reservations.
  void set_tenant_quota(std::uint8_t tenant, std::uint64_t bytes);
  /// Charges `bytes` to the tenant; false (and no charge) if it would
  /// exceed the tenant's quota.
  bool reserve_tenant_bytes(std::uint8_t tenant, std::uint64_t bytes);
  /// Returns `bytes` to the tenant's account (clamped at zero).
  void release_tenant_bytes(std::uint8_t tenant, std::uint64_t bytes);
  std::uint64_t tenant_bytes_used(std::uint8_t tenant) const;
  std::uint64_t tenant_quota(std::uint8_t tenant) const;

  // --- Introspection ------------------------------------------------------
  std::uint64_t ops_processed() const { return ops_; }
  std::uint64_t add32_ops() const { return add32_ops_; }
  std::uint64_t busy_cycles(int bank) const { return banks_.at(bank).busy_cycles; }
  int bank_count() const { return static_cast<int>(banks_.size()); }
  int bank_of(std::uint64_t addr) const {
    return static_cast<int>((addr / cal_.bank_interleave) % banks_.size());
  }
  /// Earliest time a new request to `addr`'s bank would start service.
  sim::Time bank_free_at(std::uint64_t addr) const {
    return banks_[static_cast<std::size_t>(bank_of(addr))].free_at;
  }
  std::uint64_t dram_cache_hits() const { return cache_hits_; }
  std::uint64_t dram_cache_misses() const { return cache_misses_; }

  /// Hooks this SMS into a telemetry bundle (normally called by the owning
  /// Pfe). Registers `<prefix>ops`, `<prefix>rmw_contended`, the
  /// `<prefix>queue_delay_ns` histogram and one busy-cycle counter per
  /// bank; when tracing, each request becomes a service span on its
  /// bank's row of trace process `pid` plus a bank busy-cycles counter
  /// sample. Standalone (un-instrumented) construction stays zero-cost.
  void instrument(telemetry::Telemetry& telem, int pid,
                  const std::string& prefix);

  /// Alternative access discipline for the ablation benchmark: when true,
  /// RMW ops behave like a conventional lock-the-cache-line protocol — the
  /// requester must first *move* the line to itself (round trip), operate,
  /// and write back, tripling the bank occupancy (§2.3's "naive approach").
  void set_line_ownership_mode(bool on) { line_ownership_mode_ = on; }

 private:
  struct Bank {
    sim::Time free_at;
    std::uint64_t busy_cycles = 0;
    telemetry::Counter busy_ctr;
    std::string trace_name;  // set when tracing ("sms.bank03")
  };

  sim::Duration tier_latency(std::uint64_t addr);
  int service_cycles(const XtxnRequest& req) const;
  void apply(const XtxnRequest& req, XtxnReply& reply);
  void check_addr(std::uint64_t addr, std::size_t len) const;

  // Sparse backing store: 4 KiB pages allocated on first touch.
  static constexpr std::size_t kPageBytes = 4096;
  std::vector<std::uint8_t>& page(std::uint64_t addr);
  const std::vector<std::uint8_t>* page_if_present(std::uint64_t addr) const;

  struct TenantAccount {
    std::uint64_t quota = ~0ull;  // unlimited until set
    std::uint64_t used = 0;
  };

  sim::Simulator& sim_;
  Calibration cal_;
  std::vector<Bank> banks_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> pages_;
  std::unordered_map<std::uint8_t, TenantAccount> tenant_accounts_;

  // Direct-mapped model of the off-chip DRAM's on-chip cache: line address
  // -> tag, used only to pick between cache and DRAM latency.
  std::vector<std::uint64_t> dram_cache_tags_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;

  std::uint64_t sram_brk_ = 64;  // keep address 0 unused
  std::uint64_t dram_brk_;
  std::uint64_t ops_ = 0;
  std::uint64_t add32_ops_ = 0;
  bool line_ownership_mode_ = false;

  telemetry::Counter ops_ctr_;
  telemetry::Counter contended_ctr_;
  telemetry::Histogram queue_delay_hist_;
  telemetry::Tracer* tracer_ = nullptr;  // null unless tracing enabled
  int trace_pid_ = 0;
};

}  // namespace trio
