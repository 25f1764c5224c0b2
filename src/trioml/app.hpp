// TrioMlApp: the per-PFE in-network aggregation application (paper §4-§5).
//
// Owns the control-plane side — job records written into the Shared
// Memory System and the hash table, the pre-allocated pool of block slabs
// (record + aggregation buffer), straggler-detection timer threads — and
// hands the PFE a program factory whose threads execute the aggregation
// workflow of Fig 10 packet by packet.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/headers.hpp"
#include "sim/stats.hpp"
#include "telemetry/metrics.hpp"
#include "trio/pfe.hpp"
#include "trioml/records.hpp"
#include "trioml/wire_format.hpp"

namespace trioml {

class TrioMlApp {
 public:
  /// Pre-allocates `slab_pool` block slabs for the datapath, each a 64 B
  /// record in SRAM and a 4 KiB aggregation buffer in DMEM.
  explicit TrioMlApp(trio::Pfe& pfe, std::size_t slab_pool = 8192);

  /// One aggregation job (paper Fig 9 "Control Plane Job Records").
  struct JobSetup {
    std::uint8_t job_id = 1;
    std::vector<std::uint8_t> src_ids;  // bit positions in src_mask_0, < 64
    std::uint16_t block_grad_max = kMaxGradsPerPacket;
    std::uint16_t block_cnt_max = 4095;
    std::uint8_t block_exp_ms = 10;
    net::Ipv4Addr out_src;   // result packet source IP
    net::Ipv4Addr out_dst;   // result destination (usually multicast group)
    std::uint32_t out_nh = 0;  // nexthop id ("pointer to egress chain")
    std::uint8_t out_src_id = 0;  // src_id stamped on results (hierarchical)
  };

  /// Writes the job record into SMS + hash table. Call before traffic.
  /// Throws std::invalid_argument, with the app unchanged, when the job
  /// is already configured.
  void configure_job(const JobSetup& setup);
  /// Removes the job (records of in-flight blocks are left to age out).
  void remove_job(std::uint8_t job_id);

  /// Job ids currently configured on this app, ascending. The failover
  /// path iterates this to re-home *every* tenant (docs/jobs.md).
  std::vector<std::uint8_t> configured_jobs() const;
  bool has_job(std::uint8_t job_id) const { return jobs_[job_id].record != 0; }

  /// Worst-case SMS bytes the job can occupy on one PFE: its control
  /// records plus block_cnt_max full slabs. The JobManager charges this
  /// against the tenant's SMS quota at admission, so an admitted job can
  /// never be starved of memory mid-run (docs/jobs.md).
  static std::uint64_t job_worst_case_bytes(const JobSetup& setup);

  /// Fault hook (src/faults/, docs/faults.md): models loss of the
  /// aggregation-bucket state — every active block record of `job_id` is
  /// dropped from the hash table, its slab freed (and the buffer zeroed,
  /// so re-created blocks start clean) and the job's active-block counter
  /// rewound. Contributions already absorbed into the dropped buckets are
  /// gone; workers whose blocks never complete recover by retransmitting,
  /// which re-creates the buckets from scratch. Returns the number of
  /// blocks dropped (also counted in Stats::blocks_lost_fault).
  std::size_t drop_active_blocks(std::uint8_t job_id);

  // --- Recovery hooks (src/recovery/, docs/recovery.md) ------------------
  /// Models hard state loss (router kill / power loss): bumps the hash
  /// table's generation — the O(1) hardware invalidation point, after
  /// which no datapath thread can look up or claim a pre-kill block — then
  /// sweeps the stale records, freeing their slabs and rewinding each
  /// job's active-block counter. Job records are pinned and survive.
  /// Returns the number of blocks invalidated (counted in
  /// Stats::blocks_lost_fault).
  std::size_t invalidate_active_blocks();

  /// Failover re-homing: patches the job record's egress nexthop in SMS
  /// without touching anything else, so the job keeps running and even
  /// blocks already aggregating emit their results via the new nexthop
  /// (the record is read at result-emission time). Returns false if the
  /// job is unknown.
  bool retarget_job_output(std::uint8_t job_id, std::uint32_t out_nh);

  /// Installs the aggregation program factory on the PFE. Non-aggregation
  /// packets fall back to the router's IP forwarding program.
  void install();

  /// Aggregation packets are "addressed to the router" (§4): when set,
  /// only UDP/12000 packets whose destination IP equals this address are
  /// aggregated; everything else (e.g. a multicast result transiting from
  /// an upstream aggregator) takes the forwarding path. Unset = match on
  /// the UDP port alone.
  void set_aggregation_address(net::Ipv4Addr addr) { agg_addr_ = addr; }
  const std::optional<net::Ipv4Addr>& aggregation_address() const {
    return agg_addr_;
  }

  /// Launches `threads` straggler-detection timer threads; each scans
  /// 1/threads of the hash table, giving an aging timeout of `timeout`
  /// (detection happens within [timeout, 2*timeout] of the last packet).
  void start_straggler_detection(int threads, sim::Duration timeout);
  void stop_straggler_detection();

  // --- §5 advanced mitigation: per-source profiling + classification ----
  /// Allocates per-source straggler event counters and classifier state
  /// for the job; the detection scan then charges missing sources on
  /// every aged block.
  void enable_straggler_profiling(std::uint8_t job_id);
  bool profiling_enabled(std::uint8_t job_id) const {
    return jobs_[job_id].events_base != 0;
  }
  /// 16-byte Packet/Byte event counter for (job, src); 0 when disabled.
  std::uint64_t straggler_event_counter_addr(std::uint8_t job_id,
                                             std::uint8_t src) const {
    return per_source(jobs_[job_id].events_base, src);
  }
  /// 16-byte classifier window state for (job, src); 0 when disabled.
  std::uint64_t classifier_state_addr(std::uint8_t job_id,
                                      std::uint8_t src) const {
    return per_source(jobs_[job_id].state_base, src);
  }
  /// The job's record; 0 when the job is not configured.
  std::uint64_t job_record_addr(std::uint8_t job_id) const {
    return jobs_[job_id].record;
  }
  /// Starts the infrequent classification timer group; returns its id.
  int start_straggler_classification(std::uint8_t job_id,
                                     sim::Duration period,
                                     int permanent_after_windows = 3);

  // --- Datapath services (used by the aggregation / scan programs) -------
  /// Slab i is the 64 B record at records_base + 64 i and the 4 KiB
  /// buffer at buffers_base + 4096 i: its record address names it (the
  /// record also holds the buffer's address, Fig 18 aggr_paddr).
  struct Slab {
    std::uint64_t record_addr = 0;
    std::uint64_t buffer_addr = 0;
  };
  std::optional<Slab> alloc_slab();
  std::size_t free_slab_count() const { return free_slabs_.size(); }
  std::size_t slab_pool_size() const { return slab_pool_; }
  /// Returns the slab whose record is at `record_addr` to the pool, its
  /// buffer zeroed. Throws std::logic_error for any other address.
  void free_slab(std::uint64_t record_addr);
  /// Fault-path free (bucket drops): in-flight PPE threads may still
  /// hold this slab's addresses, so it only rejoins the free pool once
  /// the PFE has drained to zero active threads — immediate reuse would
  /// let a stale thread's RMWs corrupt the next block allocated here.
  void quarantine_slab(std::uint64_t record_addr);

  trio::Pfe& pfe() { return pfe_; }
  std::uint64_t job_counter_addr(std::uint8_t job_id) const {
    return jobs_[job_id].counter;
  }
  /// Word holding the job's current number of active blocks; the
  /// datapath FetchAdd32s it to enforce block_cnt_max (Fig 17: "control
  /// memory sharing across jobs by capping the maximum number of
  /// concurrent aggregation blocks").
  std::uint64_t job_active_counter_addr(std::uint8_t job_id) const {
    return jobs_[job_id].active_counter;
  }

  // --- Statistics ----------------------------------------------------------
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t dropped_no_job = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t out_of_slabs = 0;
    std::uint64_t blocks_capped = 0;  // dropped: job at block_cnt_max
    std::uint64_t blocks_created = 0;
    std::uint64_t blocks_completed = 0;
    std::uint64_t blocks_aged = 0;
    std::uint64_t blocks_lost_fault = 0;  // dropped by drop_active_blocks
    std::uint64_t results_emitted = 0;
    std::uint64_t gradients_aggregated = 0;
    std::uint64_t straggler_events = 0;        // per-source charges (§5)
    std::uint64_t straggler_notices_sent = 0;  // classifier notifications
    std::uint64_t notices_ignored = 0;         // notifications seen by the
                                               // aggregation datapath
    // Time each aggregation packet spends in Trio.
    sim::Summary packet_latency_us;
  };
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  /// Registry histograms of each aggregation packet's time in Trio and
  /// each completed block's age, first packet to result
  /// (`pfe<N>.trioml.packet_latency_ns` / `.block_latency_ns`); live only
  /// when the router's registry is enabled.
  telemetry::Histogram packet_latency_hist() { return packet_latency_hist_; }
  telemetry::Histogram block_latency_hist() { return block_latency_hist_; }

 private:
  /// SMS addresses of one job id; 0 where none is allocated.
  struct Job {
    std::uint64_t record = 0;  // cleared by remove_job
    std::uint64_t counter = 0;
    std::uint64_t active_counter = 0;
    std::uint64_t events_base = 0;  // §5 profiling, 256 sources x 16 B
    std::uint64_t state_base = 0;
  };

  static std::uint64_t per_source(std::uint64_t base, std::uint8_t src) {
    return base == 0 ? 0 : base + std::uint64_t(src) * 16;
  }
  bool is_slab_record(std::uint64_t addr) const;
  /// Index of the slab whose record is at `record_addr`; throws
  /// std::logic_error when no slab's record is there.
  std::uint32_t slab_index(std::uint64_t record_addr) const;
  Slab slab(std::uint32_t index) const;
  void free_slab_at(std::uint32_t index);
  /// Lowers the job's active-block count by `lost`, clamped at zero, so
  /// block_cnt_max capping stays accurate after blocks are lost.
  void rewind_active_blocks(std::uint8_t job_id, std::uint32_t lost);
  void schedule_slab_reclaim();

  trio::Pfe& pfe_;
  std::size_t slab_pool_;
  std::uint64_t records_base_ = 0;
  std::uint64_t buffers_base_ = 0;
  std::vector<std::uint32_t> free_slabs_;
  std::vector<std::uint32_t> quarantined_slabs_;
  bool reclaim_scheduled_ = false;
  std::array<Job, 256> jobs_{};  // by job id
  std::optional<net::Ipv4Addr> agg_addr_;
  Stats stats_;
  telemetry::Histogram packet_latency_hist_;
  telemetry::Histogram block_latency_hist_;
};

}  // namespace trioml
