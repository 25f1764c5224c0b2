// The hardware hash block (paper §3.1 "Hash lookup/insert/delete" XTXN
// target, and §5's straggler-detection substrate).
//
// Stores 64-bit key -> 64-bit value records in fixed buckets with chained
// overflow. Each bucket is a 32-bit link to the head of its chain in one
// pool of nodes (free nodes are chained through the same link), so an
// empty table costs 4 bytes per bucket and a record one node. Within a
// bucket, records keep the order a per-bucket array would give them: an
// insert appends at the end of the chain and a dropped record's place is
// taken by the chain's last record. Scans, entries() and sweep_stale()
// visit records in that order.
//
// Every record carries a 'Recently Referenced' (REF) flag that is set on
// insert and on every lookup hit; timer threads age records by scanning a
// partition of the bucket array, reporting records whose REF flag was
// already clear and clearing the rest (check-then-clear, exactly the
// paper's aging scheme).
//
// Records are also tagged with the table's *generation* at insert time.
// bump_generation() is the O(1) invalidation point the recovery control
// plane uses after a router failure (docs/recovery.md): every non-pinned
// record inserted under an older generation becomes invisible to lookups,
// deletes, scans and entries() from that instant, and is reclaimed lazily
// (or eagerly via sweep_stale(), which hands each stale record back so the
// owner can free its slab). Pinned records — control-plane state such as
// Trio-ML job records — survive generation bumps.
//
// Like the SMS, operations are applied functionally at arrival and timed
// analytically through a single service engine per table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"
#include "trio/calibration.hpp"
#include "trio/xtxn.hpp"

namespace trio {

class HwHashTable {
 public:
  HwHashTable(sim::Simulator& simulator, const Calibration& cal,
              std::size_t buckets = 1 << 14);

  /// Handles kHashLookup / kHashInsert / kHashDelete / kHashScanStep,
  /// writing the reply to `reply` at once. Returns the reply time.
  sim::Time issue(const XtxnRequest& req, XtxnReply& reply);
  /// The same with the reply discarded, for callers that read none (the
  /// layer timers in perfbench/).
  sim::Time issue(const XtxnRequest& req, std::nullptr_t) {
    return issue(req, discarded_);
  }

  // Functional (zero-time) API used by the control plane and tests.
  /// `pinned` records ignore generation bumps (job records, not blocks).
  bool insert(std::uint64_t key, std::uint64_t value, bool pinned = false);
  std::optional<std::uint64_t> lookup(std::uint64_t key);  // sets REF
  bool erase(std::uint64_t key);
  bool contains(std::uint64_t key) const;

  /// Every *live* (key, value) record in deterministic bucket/chain order.
  /// Control-plane / fault-injection use (zero simulated time); REF flags
  /// are untouched and stale records are skipped.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries() const;

  /// Check-and-clear REF over partition `part` of `parts`: records whose
  /// REF flag was already clear are returned (aged out); all visited flags
  /// are cleared. `max_out` bounds the report size. Stale records are
  /// erased in passing, never reported.
  std::vector<std::uint64_t> scan_partition(std::uint32_t part,
                                            std::uint32_t parts,
                                            std::size_t max_out = 64);

  // --- Generation epochs (self-healing control plane, docs/recovery.md) ---
  std::uint32_t generation() const { return generation_; }
  /// Invalidates every non-pinned record inserted before this call: they
  /// become invisible immediately and are reclaimed lazily. Returns the
  /// new generation.
  std::uint32_t bump_generation() { return ++generation_; }
  /// Eagerly erases every stale record, invoking `reclaim(key, value)` for
  /// each so the owner can free paired storage. Returns the number erased.
  std::size_t sweep_stale(
      const std::function<void(std::uint64_t, std::uint64_t)>& reclaim);
  /// Stale records dropped so far (lazily on access or via sweep_stale).
  std::uint64_t stale_reclaimed() const { return stale_reclaimed_; }

  /// Number of buckets a single partition scan visits (for timing).
  std::size_t partition_buckets(std::uint32_t parts) const {
    return (heads_.size() + parts - 1) / parts;
  }

  // --- Per-job key partitions (multi-tenant isolation, docs/jobs.md) -----
  /// Splits the bucket array into `partitions` equal slices and confines
  /// every key of job j (the top key byte — trioml/records.hpp layout for
  /// both block and job keys) to slice j % partitions. One tenant filling
  /// its slice can lengthen only its own chains; other tenants' lookup
  /// and aging costs are untouched. Existing records are rehashed into
  /// the new placement, so this may be enabled on a table that already
  /// holds control-plane records. `partitions` 0 restores the unsliced
  /// whole-table hash.
  void enable_key_partitions(std::uint32_t partitions);
  std::uint32_t key_partitions() const { return partitions_; }
  /// Bucket the key lives in under the current partitioning.
  std::size_t bucket_index(std::uint64_t key) const;
  /// [first, last) bucket range job `job` is confined to. The whole table
  /// when partitioning is off.
  std::pair<std::size_t, std::size_t> partition_range(std::uint8_t job) const;

  std::size_t size() const { return size_; }
  std::size_t bucket_count() const { return heads_.size(); }
  std::uint64_t ops_processed() const { return ops_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    std::uint64_t key;
    std::uint64_t value;
    std::uint32_t gen;
    std::uint32_t next;  // next node of the chain or the free list; kNil ends
    bool ref;
    bool pinned;
  };

  bool stale(const Node& r) const {
    return !r.pinned && r.gen != generation_;
  }
  /// The link to `key`'s node, or the link that ends its chain (keys are
  /// unique: insert() drops a stale record before it adds a new one).
  std::uint32_t* find(std::uint64_t key);
  /// Drops the record that chain link `link` points at: the chain's last
  /// record takes its place, or `link` becomes the end of the chain.
  void drop_record(std::uint32_t& link);
  /// Visits the live records of partition `part` of `parts` as
  /// scan_partition() does, handing each aged key, up to `max_out`, to
  /// `aged`.
  template <typename Aged>
  void scan(std::uint32_t part, std::uint32_t parts, std::size_t max_out,
            Aged&& aged);

  sim::Simulator& sim_;
  Calibration cal_;
  XtxnReply discarded_;
  std::vector<std::uint32_t> heads_;  // one chain head per bucket
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;         // free-list head
  std::size_t size_ = 0;
  std::uint32_t partitions_ = 0;  // 0 = whole-table hashing
  std::uint32_t generation_ = 0;
  std::uint64_t stale_reclaimed_ = 0;
  sim::Time engine_free_;
  std::uint64_t ops_ = 0;
};

}  // namespace trio
