#include "trio/hash_table.hpp"

#include <stdexcept>

#include "trio/hash.hpp"

namespace trio {

HwHashTable::HwHashTable(sim::Simulator& simulator, const Calibration& cal,
                         std::size_t buckets)
    : sim_(simulator), cal_(cal), heads_(buckets, kNil) {
  if (buckets == 0) throw std::invalid_argument("HwHashTable: 0 buckets");
}

std::size_t HwHashTable::bucket_index(std::uint64_t key) const {
  if (partitions_ == 0) return mix64(key) % heads_.size();
  // Both block and job keys carry the job id in the top byte
  // (trioml/records.hpp), so every record of a job lands in its slice.
  const std::size_t span = heads_.size() / partitions_;
  const std::size_t slice = std::size_t(key >> 48) % partitions_;
  return slice * span + mix64(key) % span;
}

std::pair<std::size_t, std::size_t> HwHashTable::partition_range(
    std::uint8_t job) const {
  if (partitions_ == 0) return {0, heads_.size()};
  const std::size_t span = heads_.size() / partitions_;
  const std::size_t slice = std::size_t(job) % partitions_;
  return {slice * span, slice * span + span};
}

void HwHashTable::enable_key_partitions(std::uint32_t partitions) {
  if (partitions > heads_.size()) {
    throw std::invalid_argument("HwHashTable: more partitions than buckets");
  }
  if (partitions == partitions_) return;
  // Rehash in place: relink every node (live or stale, keeping flags and
  // generations) under the new placement, in bucket-then-chain order.
  std::vector<std::uint32_t> order;
  order.reserve(size_);
  for (std::uint32_t& head : heads_) {
    for (std::uint32_t n = head; n != kNil; n = nodes_[n].next) {
      order.push_back(n);
    }
    head = kNil;
  }
  partitions_ = partitions;
  std::vector<std::uint32_t> tails(heads_.size(), kNil);
  for (const std::uint32_t n : order) {
    const std::size_t b = bucket_index(nodes_[n].key);
    (tails[b] == kNil ? heads_[b] : nodes_[tails[b]].next) = n;
    tails[b] = n;
    nodes_[n].next = kNil;
  }
}

std::uint32_t* HwHashTable::find(std::uint64_t key) {
  std::uint32_t* link = &heads_[bucket_index(key)];
  while (*link != kNil && nodes_[*link].key != key) {
    link = &nodes_[*link].next;
  }
  return link;
}

void HwHashTable::drop_record(std::uint32_t& link) {
  const std::uint32_t at = link;
  std::uint32_t* last = &link;
  while (nodes_[*last].next != kNil) last = &nodes_[*last].next;
  const std::uint32_t freed = *last;
  if (freed != at) {
    const std::uint32_t next = nodes_[at].next;
    nodes_[at] = nodes_[freed];
    nodes_[at].next = next;
  }
  *last = kNil;
  nodes_[freed].next = free_;
  free_ = freed;
  --size_;
}

bool HwHashTable::insert(std::uint64_t key, std::uint64_t value, bool pinned) {
  if (std::uint32_t* link = find(key); *link != kNil) {
    if (!stale(nodes_[*link])) return false;
    // A stale record does not block re-insertion under the new generation.
    ++stale_reclaimed_;
    drop_record(*link);
  }
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[n].next;
  } else {
    if (nodes_.size() == kNil) {
      throw std::length_error("HwHashTable: node pool exhausted");
    }
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n] = Node{key, value, generation_, kNil, /*ref=*/true, pinned};
  ++size_;
  // Walk to the chain's end only now: growing the pool moves its links.
  *find(key) = n;
  return true;
}

std::optional<std::uint64_t> HwHashTable::lookup(std::uint64_t key) {
  std::uint32_t* link = find(key);
  if (*link == kNil) return std::nullopt;
  Node& r = nodes_[*link];
  if (stale(r)) {
    ++stale_reclaimed_;
    drop_record(*link);
    return std::nullopt;
  }
  r.ref = true;  // REF set on every reference
  return r.value;
}

bool HwHashTable::erase(std::uint64_t key) {
  std::uint32_t* link = find(key);
  if (*link == kNil) return false;
  const bool was_stale = stale(nodes_[*link]);
  if (was_stale) ++stale_reclaimed_;
  drop_record(*link);
  return !was_stale;  // stale records read as already-absent
}

bool HwHashTable::contains(std::uint64_t key) const {
  for (std::uint32_t n = heads_[bucket_index(key)]; n != kNil;
       n = nodes_[n].next) {
    if (nodes_[n].key == key) return !stale(nodes_[n]);
  }
  return false;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> HwHashTable::entries()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(size_);
  for (const std::uint32_t head : heads_) {
    for (std::uint32_t n = head; n != kNil; n = nodes_[n].next) {
      const Node& r = nodes_[n];
      if (!stale(r)) out.emplace_back(r.key, r.value);
    }
  }
  return out;
}

std::size_t HwHashTable::sweep_stale(
    const std::function<void(std::uint64_t, std::uint64_t)>& reclaim) {
  std::size_t swept = 0;
  for (std::uint32_t& head : heads_) {
    for (std::uint32_t* link = &head; *link != kNil;) {
      const Node& r = nodes_[*link];
      if (stale(r)) {
        if (reclaim) reclaim(r.key, r.value);
        ++stale_reclaimed_;
        ++swept;
        drop_record(*link);
      } else {
        link = &nodes_[*link].next;
      }
    }
  }
  return swept;
}

template <typename Aged>
void HwHashTable::scan(std::uint32_t part, std::uint32_t parts,
                       std::size_t max_out, Aged&& aged) {
  if (parts == 0 || part >= parts) {
    throw std::invalid_argument("HwHashTable::scan_partition: bad partition");
  }
  const std::size_t span = partition_buckets(parts);
  const std::size_t begin = static_cast<std::size_t>(part) * span;
  const std::size_t end =
      begin + span < heads_.size() ? begin + span : heads_.size();
  std::size_t reported = 0;
  for (std::size_t i = begin; i < end; ++i) {
    for (std::uint32_t* link = &heads_[i]; *link != kNil;) {
      Node& r = nodes_[*link];
      if (stale(r)) {
        // Invalidated generation: reclaim silently, never report as aged
        // (the owner already handed the paired storage off at bump time).
        ++stale_reclaimed_;
        drop_record(*link);
        continue;
      }
      if (!r.ref) {
        if (reported < max_out) {
          aged(r.key);
          ++reported;
        }
      } else {
        r.ref = false;
      }
      link = &r.next;
    }
  }
}

std::vector<std::uint64_t> HwHashTable::scan_partition(std::uint32_t part,
                                                       std::uint32_t parts,
                                                       std::size_t max_out) {
  std::vector<std::uint64_t> aged;
  scan(part, parts, max_out, [&aged](std::uint64_t key) {
    aged.push_back(key);
  });
  return aged;
}

sim::Time HwHashTable::issue(const XtxnRequest& req, XtxnReply& reply) {
  ++ops_;
  reply.reset();
  int service_cycles = 8;  // bucket walk
  switch (req.op) {
    case XtxnOp::kHashLookup: {
      auto v = lookup(req.arg0);
      reply.ok = v.has_value();
      reply.value = v.value_or(0);
      break;
    }
    case XtxnOp::kHashInsert:
      reply.ok = insert(req.arg0, req.arg1);
      break;
    case XtxnOp::kHashDelete: {
      // The delete reply carries the deleted record's value so a claiming
      // thread (e.g. the straggler scan) learns the record address. Stale
      // records read as absent, so a scan thread racing a generation bump
      // cannot claim an invalidated bucket. A nonzero arg1 makes the
      // delete conditional on the stored value: a thread deleting "its"
      // record cannot take out a record re-created under the same key
      // after its own was dropped.
      std::uint32_t* link = find(req.arg0);
      reply.ok = *link != kNil && !stale(nodes_[*link]) &&
                 (req.arg1 == 0 || nodes_[*link].value == req.arg1);
      if (reply.ok) {
        reply.value = nodes_[*link].value;
        drop_record(*link);
      }
      break;
    }
    case XtxnOp::kHashScanStep: {
      const auto parts = static_cast<std::uint32_t>(req.arg0 >> 32);
      const auto part = static_cast<std::uint32_t>(req.arg0);
      scan(part, parts == 0 ? 1 : parts, req.arg1 == 0 ? 64 : req.arg1,
           [&reply](std::uint64_t key) {
             std::uint8_t bytes[8];
             for (std::size_t i = 0; i < 8; ++i) {
               bytes[i] = static_cast<std::uint8_t>(key >> (8 * i));
             }
             reply.data.append(bytes);
           });
      reply.value = reply.data.size() / 8;
      // A scan touches a whole partition slice; charge proportional time.
      service_cycles = static_cast<int>(
          partition_buckets(parts == 0 ? 1 : parts) * 2);
      break;
    }
    default:
      throw std::logic_error("HwHashTable: unsupported XTXN op");
  }

  const sim::Time arrive = sim_.now() + cal_.crossbar_latency;
  const sim::Time start = arrive > engine_free_ ? arrive : engine_free_;
  engine_free_ = start + sim::Duration::cycles(service_cycles, cal_.clock_hz);
  return engine_free_ + cal_.hash_op_latency;
}

}  // namespace trio
