#include "trio/hash_table.hpp"

#include <stdexcept>

#include "trio/hash.hpp"

namespace trio {

HwHashTable::HwHashTable(sim::Simulator& simulator, const Calibration& cal,
                         std::size_t buckets)
    : sim_(simulator), cal_(cal), buckets_(buckets) {
  if (buckets == 0) throw std::invalid_argument("HwHashTable: 0 buckets");
}

std::size_t HwHashTable::bucket_index(std::uint64_t key) const {
  if (partitions_ == 0) return mix64(key) % buckets_.size();
  // Both block and job keys carry the job id in the top byte
  // (trioml/records.hpp), so every record of a job lands in its slice.
  const std::size_t span = buckets_.size() / partitions_;
  const std::size_t slice = std::size_t(key >> 48) % partitions_;
  return slice * span + mix64(key) % span;
}

std::pair<std::size_t, std::size_t> HwHashTable::partition_range(
    std::uint8_t job) const {
  if (partitions_ == 0) return {0, buckets_.size()};
  const std::size_t span = buckets_.size() / partitions_;
  const std::size_t slice = std::size_t(job) % partitions_;
  return {slice * span, slice * span + span};
}

void HwHashTable::enable_key_partitions(std::uint32_t partitions) {
  if (partitions > buckets_.size()) {
    throw std::invalid_argument("HwHashTable: more partitions than buckets");
  }
  if (partitions == partitions_) return;
  // Rehash in place: pull every record (live or stale, preserving flags
  // and generations) and redistribute under the new placement.
  std::vector<Record> records;
  records.reserve(size_);
  for (auto& bucket : buckets_) {
    records.insert(records.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  partitions_ = partitions;
  for (const Record& r : records) {
    buckets_[bucket_index(r.key)].push_back(r);
  }
}

std::vector<HwHashTable::Record>& HwHashTable::bucket_for(std::uint64_t key) {
  return buckets_[bucket_index(key)];
}

void HwHashTable::drop_record(std::vector<Record>& bucket, std::size_t i) {
  bucket[i] = bucket.back();
  bucket.pop_back();
  --size_;
}

bool HwHashTable::insert(std::uint64_t key, std::uint64_t value, bool pinned) {
  auto& b = bucket_for(key);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i].key != key) continue;
    if (!stale(b[i])) return false;
    // A stale record does not block re-insertion under the new generation.
    ++stale_reclaimed_;
    drop_record(b, i);
    break;
  }
  b.push_back(Record{key, value, /*ref=*/true, pinned, generation_});
  ++size_;
  return true;
}

std::optional<std::uint64_t> HwHashTable::lookup(std::uint64_t key) {
  auto& b = bucket_for(key);
  for (std::size_t i = 0; i < b.size(); ++i) {
    auto& r = b[i];
    if (r.key != key) continue;
    if (stale(r)) {
      ++stale_reclaimed_;
      drop_record(b, i);
      return std::nullopt;
    }
    r.ref = true;  // REF set on every reference
    return r.value;
  }
  return std::nullopt;
}

bool HwHashTable::erase(std::uint64_t key) {
  auto& b = bucket_for(key);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i].key != key) continue;
    const bool was_stale = stale(b[i]);
    if (was_stale) ++stale_reclaimed_;
    drop_record(b, i);
    return !was_stale;  // stale records read as already-absent
  }
  return false;
}

bool HwHashTable::contains(std::uint64_t key) const {
  const auto& b = buckets_[bucket_index(key)];
  for (const auto& r : b) {
    if (r.key == key) return !stale(r);
  }
  return false;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> HwHashTable::entries()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(size_);
  for (const auto& bucket : buckets_) {
    for (const auto& r : bucket) {
      if (!stale(r)) out.emplace_back(r.key, r.value);
    }
  }
  return out;
}

std::size_t HwHashTable::sweep_stale(
    const std::function<void(std::uint64_t, std::uint64_t)>& reclaim) {
  std::size_t swept = 0;
  for (auto& bucket : buckets_) {
    for (std::size_t i = 0; i < bucket.size();) {
      if (stale(bucket[i])) {
        if (reclaim) reclaim(bucket[i].key, bucket[i].value);
        ++stale_reclaimed_;
        ++swept;
        drop_record(bucket, i);
      } else {
        ++i;
      }
    }
  }
  return swept;
}

std::vector<std::uint64_t> HwHashTable::scan_partition(std::uint32_t part,
                                                       std::uint32_t parts,
                                                       std::size_t max_out) {
  if (parts == 0 || part >= parts) {
    throw std::invalid_argument("HwHashTable::scan_partition: bad partition");
  }
  const std::size_t span = partition_buckets(parts);
  const std::size_t begin = static_cast<std::size_t>(part) * span;
  const std::size_t end =
      begin + span < buckets_.size() ? begin + span : buckets_.size();
  std::vector<std::uint64_t> aged;
  for (std::size_t i = begin; i < end; ++i) {
    auto& bucket = buckets_[i];
    for (std::size_t j = 0; j < bucket.size();) {
      auto& r = bucket[j];
      if (stale(r)) {
        // Invalidated generation: reclaim silently, never report as aged
        // (the owner already handed the paired storage off at bump time).
        ++stale_reclaimed_;
        drop_record(bucket, j);
        continue;
      }
      if (!r.ref) {
        if (aged.size() < max_out) aged.push_back(r.key);
      } else {
        r.ref = false;
      }
      ++j;
    }
  }
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
      auto& b = bucket_for(req.arg0);
      reply.ok = false;
      for (auto& r : b) {
        if (r.key == req.arg0 && !stale(r) &&
            (req.arg1 == 0 || r.value == req.arg1)) {
          reply.ok = true;
          reply.value = r.value;
          break;
        }
      }
      if (reply.ok) erase(req.arg0);
      break;
    }
    case XtxnOp::kHashScanStep: {
      const auto parts = static_cast<std::uint32_t>(req.arg0 >> 32);
      const auto part = static_cast<std::uint32_t>(req.arg0);
      auto aged = scan_partition(part, parts == 0 ? 1 : parts,
                                 req.arg1 == 0 ? 64 : req.arg1);
      reply.value = aged.size();
      reply.data.resize(aged.size() * 8);
      for (std::size_t j = 0; j < aged.size(); ++j) {
        for (std::size_t i = 0; i < 8; ++i) {
          reply.data[j * 8 + i] = static_cast<std::uint8_t>(aged[j] >> (8 * i));
        }
      }
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
