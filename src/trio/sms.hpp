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
// bank is oversubscribed. The reply is written at arrival too, and the
// issuing PPE wakes its thread at the reply time; posted operations
// (writes, counter increments, vector adds) wake nothing.
//
// Host-side store: a page table over the whole address space holds 4 KiB
// pages allocated on first write; an absent page reads as zero. A clear
// that leaves a page all zero releases it, so a cleared Trio-ML slab
// buffer costs nothing until it is written again. Pages come from and go
// back to the thread's recycler (sim/recycler.hpp). Every access is
// bounds-checked once, up front, and words move with memcpy. Vector RMW
// ops run one loop per page-contiguous span. The DRAM cache's tags live
// in 4 KiB chunks of sets, each allocated on first touch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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
  /// immediately (arrival order == engine order) and the reply written to
  /// `reply` at once; returns the time the reply reaches the thread.
  sim::Time issue(const XtxnRequest& req, XtxnReply& reply);
  /// The same with the reply discarded, for callers that read none (the
  /// layer timers in perfbench/).
  sim::Time issue(const XtxnRequest& req, std::nullptr_t) {
    return issue(req, discarded_);
  }

  // --- Direct (zero-time) access for control-plane setup and tests -------
  // Each throws std::out_of_range, before touching memory, when any byte
  // of the access lies beyond the address space.
  std::uint8_t peek_u8(std::uint64_t addr) const;
  std::uint64_t peek_u64(std::uint64_t addr) const;   // little-endian
  std::uint32_t peek_u32(std::uint64_t addr) const;   // little-endian
  void poke_u8(std::uint64_t addr, std::uint8_t v);
  void poke_u32(std::uint64_t addr, std::uint32_t v);
  void poke_u64(std::uint64_t addr, std::uint64_t v);
  void poke_bytes(std::uint64_t addr, const std::vector<std::uint8_t>& data);
  std::vector<std::uint8_t> peek_bytes(std::uint64_t addr,
                                       std::size_t len) const;
  /// Zeroes [addr, addr + len). Pages never written stay unallocated, and
  /// a page the clear leaves all zero is released.
  void clear(std::uint64_t addr, std::size_t len);

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
  std::uint64_t ops_processed() const { return ops_.value(); }
  std::uint64_t add32_ops() const { return add32_ops_; }
  std::uint64_t busy_cycles(int bank) const {
    return banks_.at(bank).busy_cycles.value();
  }
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
  /// Pfe with its metric prefix). Binds `<prefix>sms.ops`,
  /// `<prefix>sms.rmw_contended` and one `<prefix>sms.bankKK.busy_cycles`
  /// per bank, and registers the `<prefix>sms.queue_delay_ns` histogram;
  /// when tracing, each request becomes a service span on its bank's row
  /// of trace process `pid` plus a bank busy-cycles counter sample.
  /// Standalone (un-instrumented) construction stays zero-cost.
  void instrument(telemetry::Telemetry& telem, int pid,
                  std::string_view prefix);

  /// Alternative access discipline for the ablation benchmark: when true,
  /// RMW ops behave like a conventional lock-the-cache-line protocol — the
  /// requester must first *move* the line to itself (round trip), operate,
  /// and write back, tripling the bank occupancy (§2.3's "naive approach").
  void set_line_ownership_mode(bool on) { line_ownership_mode_ = on; }

 private:
  struct Bank {
    sim::Time free_at;
    telemetry::Counter busy_cycles;
    std::string trace_name;  // set when tracing ("sms.bank03")
  };

  sim::Duration tier_latency(std::uint64_t addr);
  int service_cycles(const XtxnRequest& req) const;
  void apply(const XtxnRequest& req, XtxnReply& reply);
  void check_addr(std::uint64_t addr, std::size_t len) const;

  // Page-table store. read/write/load/store do no bounds check: callers
  // check the whole access first.
  static constexpr std::size_t kPageBytes = 4096;
  using Page = std::array<std::uint8_t, kPageBytes>;
  /// Hands a page back to the recycler.
  struct PageRelease {
    void operator()(Page* p) const noexcept;
  };
  using PagePtr = std::unique_ptr<Page, PageRelease>;
  /// Page `index` (addr / kPageBytes), allocated zeroed if absent.
  std::uint8_t* page(std::size_t index);
  void read(std::uint64_t addr, void* out, std::size_t len) const;
  void write(std::uint64_t addr, const void* in, std::size_t len);
  template <typename T>
  T load(std::uint64_t addr) const;
  template <typename T>
  void store(std::uint64_t addr, T v);
  /// mem = fn(mem, in) for each packed u32 of `in` against [addr, ...).
  template <typename Fn>
  void rmw_vec32(std::uint64_t addr, std::span<const std::uint8_t> in, Fn fn);

  struct TenantAccount {
    std::uint64_t quota = ~0ull;  // unlimited until set
    std::uint64_t used = 0;
  };

  sim::Simulator& sim_;
  Calibration cal_;
  XtxnReply discarded_;
  std::vector<Bank> banks_;
  std::vector<PagePtr> pages_;  // index addr / kPageBytes
  std::unordered_map<std::uint8_t, TenantAccount> tenant_accounts_;

  // Direct-mapped model of the off-chip DRAM's on-chip cache, used only to
  // pick between cache and DRAM latency: line address -> tag at set
  // line % dram_cache_sets_. Tags are stored per chunk of sets.
  static constexpr std::size_t kSetsPerChunk = 512;
  using TagChunk = std::array<std::uint64_t, kSetsPerChunk>;
  std::uint64_t dram_cache_sets_;
  std::vector<std::unique_ptr<TagChunk>> dram_cache_tags_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;

  std::uint64_t sram_brk_ = 64;  // keep address 0 unused
  std::uint64_t dram_brk_;
  telemetry::Counter ops_;
  std::uint64_t add32_ops_ = 0;
  bool line_ownership_mode_ = false;

  telemetry::Counter rmw_contended_;
  telemetry::Histogram queue_delay_hist_;
  telemetry::Tracer* tracer_ = nullptr;  // null unless tracing enabled
  int trace_pid_ = 0;
};

}  // namespace trio
