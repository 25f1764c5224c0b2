// Property-style tests: randomized and parameterized sweeps over the
// substrates' invariants, driven by the deterministic sim::Rng so every
// failure is reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "microcode/bitfield.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trio/forwarding.hpp"
#include "trio/hash.hpp"
#include "trio/hash_table.hpp"
#include "trio/reorder.hpp"
#include "trio/sms.hpp"
#include "trioml/testbed.hpp"
#include "trioml/wire_format.hpp"

namespace {

// ---------------------------------------------------------------------------
// Bitfield invariants

TEST(BitfieldProperty, RandomRoundTripsPreserveNeighbours) {
  sim::Rng rng(0xb17f);
  for (int trial = 0; trial < 2000; ++trial) {
    net::Buffer buf(32);
    // Background pattern.
    for (std::size_t i = 0; i < 32; ++i) {
      buf.set_u8(i, static_cast<std::uint8_t>(rng.next_u64()));
    }
    const auto width = static_cast<unsigned>(rng.uniform_int(1, 64));
    const auto bit_off = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(32 * 8 - width)));
    const std::uint64_t value =
        width == 64 ? rng.next_u64() : rng.next_u64() & ((1ull << width) - 1);

    net::Buffer before = buf;
    microcode::write_bits(buf, bit_off, width, value);
    ASSERT_EQ(microcode::read_bits(buf, bit_off, width), value)
        << "width=" << width << " off=" << bit_off;
    // All bits outside [bit_off, bit_off+width) unchanged.
    for (std::size_t b = 0; b < 32 * 8; ++b) {
      if (b >= bit_off && b < bit_off + width) continue;
      ASSERT_EQ(microcode::read_bits(buf, b, 1),
                microcode::read_bits(before, b, 1))
          << "bit " << b << " disturbed (field off=" << bit_off
          << " width=" << width << ")";
    }
  }
}

// The bit-at-a-time loops read_bits and write_bits once were: the reference
// for the byte-span implementation.
std::uint64_t reference_read_bits(const net::Buffer& buf, std::size_t bit_off,
                                  unsigned width) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    const std::size_t bit = bit_off + i;
    v = v << 1 | ((buf.u8(bit / 8) >> (7 - bit % 8)) & 1u);
  }
  return v;
}

void reference_write_bits(net::Buffer& buf, std::size_t bit_off,
                          unsigned width, std::uint64_t value) {
  for (unsigned i = 0; i < width; ++i) {
    const std::size_t bit = bit_off + i;
    const unsigned shift = 7 - bit % 8;
    const auto b = static_cast<unsigned>((value >> (width - 1 - i)) & 1u);
    const std::uint8_t byte = buf.u8(bit / 8);
    buf.set_u8(bit / 8, static_cast<std::uint8_t>((byte & ~(1u << shift)) |
                                                  b << shift));
  }
}

net::Buffer random_buffer(sim::Rng& rng, std::size_t size) {
  net::Buffer buf(size);
  for (std::size_t i = 0; i < size; ++i) {
    buf.set_u8(i, static_cast<std::uint8_t>(rng.next_u64()));
  }
  return buf;
}

/// The std::out_of_range message `f` throws; empty when it throws none.
template <typename F>
std::string out_of_range_message(F f) {
  try {
    f();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

TEST(BitfieldProperty, MatchesBitAtATimeReference) {
  sim::Rng rng(0xb17e);
  const net::Buffer seeded = random_buffer(rng, 18);
  for (std::size_t off = 0; off < 72; ++off) {
    for (unsigned width = 1; width <= 64; ++width) {
      ASSERT_EQ(microcode::read_bits(seeded, off, width),
                reference_read_bits(seeded, off, width))
          << "width=" << width << " off=" << off;
      // Bits of `value` above `width` must be ignored.
      const std::uint64_t value = rng.next_u64();
      net::Buffer got = seeded;
      net::Buffer want = seeded;
      microcode::write_bits(got, off, width, value);
      reference_write_bits(want, off, width, value);
      ASSERT_EQ(got.hex(), want.hex()) << "width=" << width << " off=" << off;
    }
  }
}

TEST(BitfieldProperty, WritePastTheEndThrowsAndWritesNothing) {
  sim::Rng rng(0xe0d);
  const net::Buffer seeded = random_buffer(rng, 18);
  const std::size_t bits = 18 * 8;
  for (std::size_t off = bits - 64; off <= bits + 8; ++off) {
    for (unsigned width = 1; width <= 64; ++width) {
      if (off + width <= bits) continue;
      // Both throw what the reference throws: Buffer::u8's message for
      // the field's first out-of-range byte.
      const std::string want = out_of_range_message(
          [&] { reference_read_bits(seeded, off, width); });
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(out_of_range_message(
                    [&] { microcode::read_bits(seeded, off, width); }),
                want)
          << "width=" << width << " off=" << off;
      net::Buffer buf = seeded;
      EXPECT_EQ(out_of_range_message([&] {
                  microcode::write_bits(buf, off, width, ~std::uint64_t{0});
                }),
                want)
          << "width=" << width << " off=" << off;
      ASSERT_EQ(buf.hex(), seeded.hex())
          << "width=" << width << " off=" << off;
    }
  }
}

// ---------------------------------------------------------------------------
// Trio-ML header: random field values survive the wire

TEST(WireFormatProperty, RandomHeadersRoundTrip) {
  sim::Rng rng(0x3ad0);
  for (int trial = 0; trial < 5000; ++trial) {
    trioml::TrioMlHeader h;
    h.job_id = static_cast<std::uint8_t>(rng.next_u64());
    h.block_id = static_cast<std::uint32_t>(rng.next_u64());
    h.age_op = static_cast<std::uint8_t>(rng.next_u64() & 0xf);
    h.final_block = rng.bernoulli(0.5);
    h.degraded = rng.bernoulli(0.5);
    h.src_id = static_cast<std::uint8_t>(rng.next_u64());
    h.src_cnt = static_cast<std::uint8_t>(rng.next_u64());
    h.gen_id = static_cast<std::uint16_t>(rng.next_u64());
    h.grad_cnt = static_cast<std::uint16_t>(rng.next_u64() & 0xfff);

    net::Buffer buf(trioml::TrioMlHeader::kSize);
    h.write(buf, 0);
    const auto p = trioml::TrioMlHeader::parse(buf, 0);
    ASSERT_EQ(p.job_id, h.job_id);
    ASSERT_EQ(p.block_id, h.block_id);
    ASSERT_EQ(p.age_op, h.age_op);
    ASSERT_EQ(p.final_block, h.final_block);
    ASSERT_EQ(p.degraded, h.degraded);
    ASSERT_EQ(p.src_id, h.src_id);
    ASSERT_EQ(p.src_cnt, h.src_cnt);
    ASSERT_EQ(p.gen_id, h.gen_id);
    ASSERT_EQ(p.grad_cnt, h.grad_cnt);
  }
}

// ---------------------------------------------------------------------------
// SMS against a reference model

TEST(SmsProperty, RandomOpSequenceMatchesReferenceModel) {
  sim::Simulator sim;
  trio::SharedMemorySystem sms(sim, trio::Calibration{});
  std::map<std::uint64_t, std::uint8_t> ref;  // byte-level shadow
  sim::Rng rng(0x5e5);

  auto ref_u32 = [&](std::uint64_t addr) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = v << 8 | ref[addr + std::uint64_t(i)];
    return v;
  };
  auto ref_set_u32 = [&](std::uint64_t addr, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      ref[addr + std::uint64_t(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  auto ref_u64 = [&](std::uint64_t addr) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | ref[addr + std::uint64_t(i)];
    return v;
  };
  auto ref_set_u64 = [&](std::uint64_t addr, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      ref[addr + std::uint64_t(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };

  trio::XtxnReply reply;
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t addr = rng.next_below(4096) * 8;  // 32 KB arena
    trio::XtxnRequest req;
    switch (rng.next_below(5)) {
      case 0: {  // write random 8 bytes
        req.op = trio::XtxnOp::kWrite;
        req.addr = addr;
        req.data.resize(8);
        for (auto& b : req.data) b = static_cast<std::uint8_t>(rng.next_u64());
        for (std::size_t i = 0; i < 8; ++i) ref[addr + i] = req.data[i];
        sms.issue(req, reply);
        break;
      }
      case 1: {  // fetch-add32
        const auto inc = static_cast<std::uint32_t>(rng.next_u64());
        req.op = trio::XtxnOp::kFetchAdd32;
        req.addr = addr;
        req.arg0 = inc;
        sms.issue(req, reply);
        ref_set_u32(addr, ref_u32(addr) + inc);
        break;
      }
      case 2: {  // fetch-or64
        const std::uint64_t m = rng.next_u64();
        req.op = trio::XtxnOp::kFetchOr64;
        req.addr = addr;
        req.arg0 = m;
        sms.issue(req, reply);
        ref_set_u64(addr, ref_u64(addr) | m);
        break;
      }
      case 3: {  // masked write
        const std::uint64_t v = rng.next_u64();
        const std::uint64_t m = rng.next_u64();
        req.op = trio::XtxnOp::kMaskedWrite64;
        req.addr = addr;
        req.arg0 = v;
        req.arg1 = m;
        sms.issue(req, reply);
        ref_set_u64(addr, (ref_u64(addr) & ~m) | (v & m));
        break;
      }
      case 4: {  // vector add of 4 gradients
        req.op = trio::XtxnOp::kAddVec32;
        req.addr = addr;
        req.data.resize(16);
        for (auto& b : req.data) b = static_cast<std::uint8_t>(rng.next_u64());
        for (int g = 0; g < 4; ++g) {
          std::uint32_t inc = 0;
          for (int i = 3; i >= 0; --i) {
            inc = inc << 8 | req.data[static_cast<std::size_t>(g * 4 + i)];
          }
          ref_set_u32(addr + std::uint64_t(g) * 4,
                      ref_u32(addr + std::uint64_t(g) * 4) + inc);
        }
        sms.issue(req, reply);
        break;
      }
    }
  }
  sim.run();
  for (const auto& [addr, byte] : ref) {
    ASSERT_EQ(sms.peek_u8(addr), byte) << "divergence at " << addr;
  }
}

// ---------------------------------------------------------------------------
// Reorder engine: any close order preserves per-flow open order

TEST(ReorderProperty, RandomCompletionOrderPreservesFlowOrder) {
  sim::Rng rng(0x0e0e);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> released;  // flow, seq
    trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
      released.emplace_back(out.nexthop_id >> 16, out.nexthop_id & 0xffff);
    });
    struct Item {
      std::uint64_t ticket;
      std::uint64_t flow;
      std::uint64_t seq;
    };
    std::vector<Item> open;
    std::vector<std::uint64_t> next_seq(4, 0);
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t flow = rng.next_below(4);
      const std::uint64_t seq = next_seq[flow]++;
      const auto t = re.open(flow);
      re.attach(t, {nullptr, static_cast<std::uint32_t>(flow << 16 | seq)});
      open.push_back({t, flow, seq});
    }
    // Close in random order.
    while (!open.empty()) {
      const std::size_t k = rng.next_below(open.size());
      re.close(open[k].ticket);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
    }
    ASSERT_EQ(released.size(), 100u);
    std::vector<std::uint64_t> seen(4, 0);
    for (const auto& [flow, seq] : released) {
      ASSERT_EQ(seq, seen[flow]++) << "flow " << flow << " out of order";
    }
  }
}

TEST(ReorderProperty, StreamMatchesPerFlowFifoModel) {
  // Interleaved opens, attaches and closes over 8 flows. A ticket on flow
  // 7 stays open while thousands of tickets pass, so the ticket ring wraps
  // and grows past its starting capacity; every release and pending() is
  // checked against a per-flow FIFO model after every operation.
  sim::Rng rng(0x71c4e7);
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  struct ModelTicket {
    std::uint64_t id;
    bool closed = false;
    std::vector<std::uint32_t> outputs;
  };
  std::array<std::deque<ModelTicket>, 8> model;  // unreleased, open order
  std::vector<std::uint32_t> expected;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open;  // id, flow
  std::size_t model_pending = 0;
  std::uint32_t next_output = 0;
  std::uint64_t released_id = 0;  // some released ticket
  std::uint64_t blocked_id = 0;   // a closed ticket behind the held one

  const auto model_ticket = [&](std::uint64_t id, std::uint64_t flow) {
    for (ModelTicket& t : model[flow]) {
      if (t.id == id) return &t;
    }
    return static_cast<ModelTicket*>(nullptr);
  };
  const auto open_ticket = [&](std::uint64_t flow) {
    const std::uint64_t id = re.open(flow);
    model[flow].push_back({id, false, {}});
    open.emplace_back(id, flow);
    ++model_pending;
    return id;
  };
  const auto close_at = [&](std::size_t k) {
    const auto [id, flow] = open[k];
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
    re.close(id);
    model_ticket(id, flow)->closed = true;
    auto& q = model[flow];
    while (!q.empty() && q.front().closed) {
      expected.insert(expected.end(), q.front().outputs.begin(),
                      q.front().outputs.end());
      q.pop_front();
      --model_pending;
    }
    if (model_ticket(id, flow) == nullptr) {
      released_id = id;
    } else if (flow == 7) {
      blocked_id = id;  // stays blocked while the held ticket is open
    }
  };

  const std::uint64_t held = open_ticket(7);
  const std::size_t start_capacity = re.capacity();
  std::size_t passed = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t r = rng.next_below(10);
    if (r < 4 || open.size() < 2) {
      open_ticket(rng.next_below(8));
      ++passed;
    } else if (r < 7) {
      // Attach 0-3 outputs to a random open ticket.
      const auto [id, flow] = open[rng.next_below(open.size())];
      const std::uint64_t n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        re.attach(id, {nullptr, next_output});
        model_ticket(id, flow)->outputs.push_back(next_output++);
      }
    } else {
      // Close any open ticket but the held one (open[0]).
      close_at(1 + rng.next_below(open.size() - 1));
    }
    ASSERT_EQ(released, expected) << "after operation " << op;
    ASSERT_EQ(re.pending(), model_pending) << "after operation " << op;
  }
  ASSERT_EQ(open[0].first, held);
  EXPECT_GT(passed, start_capacity);
  EXPECT_GT(re.capacity(), start_capacity) << "the ring never grew";

  // Unknown tickets (released, never opened) and double closes throw.
  const auto throws = [](const auto& fn, const std::string& what) {
    try {
      fn();
    } catch (const std::logic_error& e) {
      return std::string(e.what()).find(what) != std::string::npos;
    }
    return false;
  };
  ASSERT_NE(released_id, 0u);
  ASSERT_NE(blocked_id, 0u);
  EXPECT_TRUE(throws([&] { re.close(released_id); }, "unknown ticket"));
  EXPECT_TRUE(throws([&] { re.attach(released_id, {nullptr, 0}); },
                     "unknown ticket"));
  const std::uint64_t newest = open_ticket(0);
  EXPECT_TRUE(throws([&] { re.close(newest + 1000); }, "unknown ticket"));
  EXPECT_TRUE(throws([&] { re.close(blocked_id); }, "closed twice"));
  EXPECT_TRUE(throws([&] { re.attach(blocked_id, {nullptr, 0}); },
                     "already closed"));
  EXPECT_EQ(re.pending(), model_pending);
  EXPECT_EQ(released, expected);

  // Closing the held ticket last drains flow 7 in order.
  while (open.size() > 1) close_at(open.size() - 1);
  close_at(0);
  EXPECT_EQ(released, expected);
  EXPECT_EQ(re.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Hash table against a per-bucket vector model

/// The hash block as it stored its records before the node pool: one
/// vector per bucket, an insert appending, a drop swapping in the bucket's
/// last record. Its order is the contract the node pool keeps.
class VectorHashModel {
 public:
  struct Record {
    std::uint64_t key, value;
    bool ref, pinned;
    std::uint32_t gen;
  };
  using Reclaimed = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  explicit VectorHashModel(std::size_t buckets) : buckets_(buckets) {}

  std::size_t bucket_index(std::uint64_t key) const {
    if (partitions_ == 0) return trio::mix64(key) % buckets_.size();
    const std::size_t span = buckets_.size() / partitions_;
    return std::size_t(key >> 48) % partitions_ * span +
           trio::mix64(key) % span;
  }
  void enable_key_partitions(std::uint32_t partitions) {
    if (partitions == partitions_) return;
    std::vector<Record> records;
    for (auto& bucket : buckets_) {
      records.insert(records.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    partitions_ = partitions;
    for (const Record& r : records) buckets_[bucket_index(r.key)].push_back(r);
  }
  std::uint32_t bump_generation() { return ++generation_; }

  bool insert(std::uint64_t key, std::uint64_t value, bool pinned) {
    auto& b = buckets_[bucket_index(key)];
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i].key != key) continue;
      if (!stale(b[i])) return false;
      ++stale_reclaimed_;
      drop(b, i);
      break;
    }
    b.push_back(Record{key, value, true, pinned, generation_});
    return true;
  }
  std::optional<std::uint64_t> lookup(std::uint64_t key) {
    auto& b = buckets_[bucket_index(key)];
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i].key != key) continue;
      if (stale(b[i])) {
        ++stale_reclaimed_;
        drop(b, i);
        return std::nullopt;
      }
      b[i].ref = true;
      return b[i].value;
    }
    return std::nullopt;
  }
  bool erase(std::uint64_t key) {
    auto& b = buckets_[bucket_index(key)];
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i].key != key) continue;
      const bool was_stale = stale(b[i]);
      if (was_stale) ++stale_reclaimed_;
      drop(b, i);
      return !was_stale;
    }
    return false;
  }
  bool contains(std::uint64_t key) const {
    for (const auto& r : buckets_[bucket_index(key)]) {
      if (r.key == key) return !stale(r);
    }
    return false;
  }
  /// kHashDelete: conditional on the value when `expect` is nonzero.
  std::optional<std::uint64_t> take(std::uint64_t key, std::uint64_t expect) {
    for (const auto& r : buckets_[bucket_index(key)]) {
      if (r.key == key && !stale(r) && (expect == 0 || r.value == expect)) {
        const std::uint64_t value = r.value;
        erase(key);
        return value;
      }
    }
    return std::nullopt;
  }
  Reclaimed entries() const {
    Reclaimed out;
    for (const auto& b : buckets_) {
      for (const auto& r : b) {
        if (!stale(r)) out.emplace_back(r.key, r.value);
      }
    }
    return out;
  }
  Reclaimed sweep_stale() {
    Reclaimed reclaimed;
    for (auto& b : buckets_) {
      for (std::size_t i = 0; i < b.size();) {
        if (!stale(b[i])) {
          ++i;
          continue;
        }
        reclaimed.emplace_back(b[i].key, b[i].value);
        ++stale_reclaimed_;
        drop(b, i);
      }
    }
    return reclaimed;
  }
  std::vector<std::uint64_t> scan_partition(std::uint32_t part,
                                            std::uint32_t parts,
                                            std::size_t max_out) {
    const std::size_t span = (buckets_.size() + parts - 1) / parts;
    const std::size_t begin = std::size_t(part) * span;
    const std::size_t end = std::min(begin + span, buckets_.size());
    std::vector<std::uint64_t> aged;
    for (std::size_t i = begin; i < end; ++i) {
      auto& b = buckets_[i];
      for (std::size_t j = 0; j < b.size();) {
        if (stale(b[j])) {
          ++stale_reclaimed_;
          drop(b, j);
          continue;
        }
        if (!b[j].ref) {
          if (aged.size() < max_out) aged.push_back(b[j].key);
        } else {
          b[j].ref = false;
        }
        ++j;
      }
    }
    return aged;
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& b : buckets_) n += b.size();
    return n;
  }
  std::uint64_t stale_reclaimed() const { return stale_reclaimed_; }

 private:
  bool stale(const Record& r) const {
    return !r.pinned && r.gen != generation_;
  }
  static void drop(std::vector<Record>& b, std::size_t i) {
    b[i] = b.back();
    b.pop_back();
  }

  std::vector<std::vector<Record>> buckets_;
  std::uint32_t partitions_ = 0;
  std::uint32_t generation_ = 0;
  std::uint64_t stale_reclaimed_ = 0;
};

std::vector<std::uint64_t> packed_keys(const trio::XtxnPayload& data) {
  std::vector<std::uint64_t> keys(data.size() / 8);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    for (int i = 7; i >= 0; --i) {
      keys[j] = keys[j] << 8 | data[j * 8 + std::size_t(i)];
    }
  }
  return keys;
}

TEST(HashTableProperty, MatchesPerBucketVectorModel) {
  // 50 000 seeded operations on a 64-bucket table that holds up to about
  // 590 records, nine a bucket, so most drops move a record. Every
  // return value, XTXN reply, aged list (in order), reclaim call and,
  // after each phase, entries() must equal the vector model's, with
  // key partitions switched 0 -> 4 -> 0 mid-run.
  constexpr std::size_t kBuckets = 64;
  sim::Simulator sim;
  const trio::Calibration cal;
  trio::HwHashTable table(sim, cal, kBuckets);
  VectorHashModel model(kBuckets);
  sim::Rng rng(0xb0c4e7);
  // A job id from bit 48 up, where key partitions slice.
  const auto random_key = [&rng] {
    return rng.next_below(8) << 48 | (1 + rng.next_below(100));
  };
  std::uint64_t next_value = 1;
  // The table's one service engine, with the clock standing at 0.
  std::int64_t engine_free_ns = 0;
  const auto reply_ns = [&](std::int64_t cycles) {
    const std::int64_t start =
        std::max(cal.crossbar_latency.ns(), engine_free_ns);
    engine_free_ns =
        start + sim::Duration::cycles(cycles, cal.clock_hz).ns();
    return engine_free_ns + cal.hash_op_latency.ns();
  };

  constexpr int kOps = 50000;
  const std::uint32_t kPhasePartitions[] = {0, 4, 0};
  trio::XtxnReply reply;
  for (int phase = 0; phase < 3; ++phase) {
    table.enable_key_partitions(kPhasePartitions[phase]);
    model.enable_key_partitions(kPhasePartitions[phase]);
    ASSERT_EQ(table.entries(), model.entries()) << "rehash, phase " << phase;
    for (int op = phase * kOps / 3; op < (phase + 1) * kOps / 3; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const std::uint64_t key = random_key();
      const std::uint64_t kind = rng.next_below(1000);
      if (kind < 300) {
        const bool pinned = rng.next_below(8) == 0;
        const std::uint64_t value = next_value++;
        ASSERT_EQ(table.insert(key, value, pinned),
                  model.insert(key, value, pinned));
      } else if (kind < 380) {
        ASSERT_EQ(table.lookup(key), model.lookup(key));
      } else if (kind < 430) {
        ASSERT_EQ(table.erase(key), model.erase(key));
      } else if (kind < 470) {
        ASSERT_EQ(table.contains(key), model.contains(key));
      } else if (kind < 860) {  // one XTXN
        trio::XtxnRequest req;
        req.arg0 = key;
        trio::XtxnReply want;
        std::vector<std::uint64_t> want_aged;
        std::int64_t cycles = 8;
        if (kind < 570) {
          req.op = trio::XtxnOp::kHashLookup;
          const auto v = model.lookup(key);
          want.ok = v.has_value();
          want.value = v.value_or(0);
        } else if (kind < 700) {
          req.op = trio::XtxnOp::kHashInsert;
          req.arg1 = next_value++;
          want.ok = model.insert(key, req.arg1, false);
        } else if (kind < 800) {
          req.op = trio::XtxnOp::kHashDelete;
          // Unconditional, conditional on the stored value, or on a
          // value no record holds.
          const auto held = model.entries();
          const auto it = std::find_if(held.begin(), held.end(),
                                       [key](const auto& e) {
                                         return e.first == key;
                                       });
          const std::uint64_t pick = rng.next_below(3);
          req.arg1 = pick == 0                       ? 0
                     : pick == 1 && it != held.end() ? it->second
                                                     : next_value + 7;
          const auto v = model.take(key, req.arg1);
          want.ok = v.has_value();
          want.value = v.value_or(0);
        } else {
          req.op = trio::XtxnOp::kHashScanStep;
          const std::uint32_t parts = 1 + std::uint32_t(rng.next_below(6));
          const std::uint32_t part = std::uint32_t(rng.next_below(parts));
          req.arg0 = std::uint64_t(parts) << 32 | part;
          req.arg1 = rng.next_below(6);  // 0 reports up to 64
          want_aged =
              model.scan_partition(part, parts, req.arg1 == 0 ? 64 : req.arg1);
          want.value = want_aged.size();
          cycles = std::int64_t(table.partition_buckets(parts)) * 2;
        }
        const std::int64_t want_ns = reply_ns(cycles);
        ASSERT_EQ(table.issue(req, reply).ns(), want_ns);
        ASSERT_EQ(reply.ok, want.ok);
        ASSERT_EQ(reply.value, want.value);
        ASSERT_EQ(reply.data.size(), 8 * want_aged.size());
        ASSERT_EQ(packed_keys(reply.data), want_aged);
      } else if (kind < 998) {
        static constexpr std::uint32_t kParts[] = {1, 4, 10};
        const std::uint32_t parts = kParts[rng.next_below(3)];
        const std::uint32_t part = std::uint32_t(rng.next_below(parts));
        const std::size_t max_out = 1 + rng.next_below(6);
        ASSERT_EQ(table.scan_partition(part, parts, max_out),
                  model.scan_partition(part, parts, max_out));
      } else {
        // A generation bump, half the time swept at once as recovery
        // sweeps; otherwise scans and accesses reclaim lazily.
        ASSERT_EQ(table.bump_generation(), model.bump_generation());
        if (kind == 998) continue;
        VectorHashModel::Reclaimed got;
        const std::size_t swept =
            table.sweep_stale([&got](std::uint64_t k, std::uint64_t v) {
              got.emplace_back(k, v);
            });
        const auto want = model.sweep_stale();
        ASSERT_EQ(swept, want.size());
        ASSERT_EQ(got, want);
      }
      ASSERT_EQ(table.size(), model.size());
      ASSERT_EQ(table.stale_reclaimed(), model.stale_reclaimed());
    }
    ASSERT_EQ(table.entries(), model.entries()) << "end of phase " << phase;
  }
  EXPECT_GT(model.stale_reclaimed(), 0u);
}

// ---------------------------------------------------------------------------
// LPM against a linear reference

TEST(ForwardingProperty, LpmMatchesLinearScan) {
  sim::Rng rng(0x10b);
  trio::ForwardingTable fwd;
  struct Route {
    std::uint32_t prefix;
    int len;
    std::uint32_t nh;
  };
  std::vector<Route> routes;
  for (int i = 0; i < 300; ++i) {
    const int len = static_cast<int>(rng.next_below(33));
    const std::uint32_t raw = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t mask =
        len == 0 ? 0 : (len >= 32 ? ~0u : ~((1u << (32 - len)) - 1));
    const std::uint32_t prefix = raw & mask;
    const auto nh = fwd.add_nexthop(trio::NexthopDiscard{});
    fwd.add_route(net::Ipv4Addr(prefix), len, nh);
    routes.push_back({prefix, len, nh});
  }
  for (int q = 0; q < 5000; ++q) {
    const auto addr = static_cast<std::uint32_t>(rng.next_u64());
    // Linear reference: longest match wins; later insert wins ties.
    int best_len = -1;
    std::uint32_t best_nh = 0;
    for (const auto& r : routes) {
      const std::uint32_t mask =
          r.len == 0 ? 0 : (r.len >= 32 ? ~0u : ~((1u << (32 - r.len)) - 1));
      if ((addr & mask) == r.prefix && r.len >= best_len) {
        best_len = r.len;
        best_nh = r.nh;
      }
    }
    const auto got = fwd.lookup(net::Ipv4Addr(addr));
    if (best_len < 0) {
      ASSERT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(*got, best_nh) << "addr " << addr;
    }
  }
}

// ---------------------------------------------------------------------------
// Quantisation error bound

TEST(QuantizeProperty, ErrorBoundedByHalfStep) {
  sim::Rng rng(0x9e);
  for (int i = 0; i < 10'000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1000.0, 1000.0));
    const float back = trioml::dequantize(trioml::quantize(v));
    ASSERT_NEAR(back, v, 0.5f / (1 << 16) + 1e-7f);
  }
}

// ---------------------------------------------------------------------------
// End-to-end aggregation sweep: parameterized over (workers, grads/pkt,
// window, hierarchical) with randomized gradients, verified exactly.

using AggParams = std::tuple<int, int, std::uint32_t, bool>;

class AggregationSweep : public ::testing::TestWithParam<AggParams> {};

TEST_P(AggregationSweep, SumsExactly) {
  const auto [workers, grads_per_packet, window, hierarchical] = GetParam();
  trioml::TestbedConfig cfg;
  cfg.num_workers = workers;
  cfg.grads_per_packet = static_cast<std::uint16_t>(grads_per_packet);
  cfg.window = window;
  cfg.hierarchical = hierarchical;
  trioml::Testbed tb(cfg);

  const std::size_t total = static_cast<std::size_t>(grads_per_packet) * 7;
  sim::Rng rng(static_cast<std::uint64_t>(workers * 1000 + grads_per_packet));
  std::vector<std::vector<std::uint32_t>> grads(
      static_cast<std::size_t>(workers));
  std::vector<std::uint32_t> expected_sum(total, 0);
  for (int w = 0; w < workers; ++w) {
    auto& g = grads[static_cast<std::size_t>(w)];
    g.resize(total);
    for (std::size_t i = 0; i < total; ++i) {
      g[i] = static_cast<std::uint32_t>(rng.next_below(1 << 20));
      expected_sum[i] += g[i];
    }
  }

  int done = 0;
  std::vector<trioml::AllreduceResult> results(
      static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    tb.worker(w).start_allreduce(
        grads[static_cast<std::size_t>(w)], 1,
        [&, w](trioml::AllreduceResult r) {
          results[static_cast<std::size_t>(w)] = std::move(r);
          ++done;
        });
  }
  tb.simulator().run();
  ASSERT_EQ(done, workers);
  for (int w = 0; w < workers; ++w) {
    const auto& r = results[static_cast<std::size_t>(w)];
    ASSERT_EQ(r.degraded_blocks, 0u);
    for (std::size_t i = 0; i < total; ++i) {
      const float expected =
          trioml::dequantize(static_cast<std::int32_t>(expected_sum[i])) /
          static_cast<float>(workers);
      ASSERT_NEAR(r.grads[i], expected, 1e-4f)
          << "worker " << w << " gradient " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationSweep,
    ::testing::Values(
        AggParams{2, 64, 1, false}, AggParams{2, 1024, 4, false},
        AggParams{3, 100, 2, false},  // non-power-of-two gradient count
        AggParams{4, 256, 16, false}, AggParams{4, 512, 64, false},
        AggParams{6, 1024, 16, false}, AggParams{8, 128, 8, false},
        AggParams{6, 256, 8, true},   // hierarchical
        AggParams{6, 1024, 32, true}, AggParams{4, 64, 4, true},
        AggParams{2, 1, 1, false},    // single-gradient blocks
        AggParams{5, 333, 5, false}));

// ---------------------------------------------------------------------------
// Packet loss + retransmission (paper §7 "Packet loss in Trio-ML"):
// lossy uplinks, 1 ms retransmission, aggregator dedupe by src_id.

TEST(LossRecovery, RetransmissionSurvivesLossyLinks) {
  trioml::TestbedConfig cfg;
  cfg.num_workers = 3;
  cfg.grads_per_packet = 256;
  cfg.window = 8;
  trioml::Testbed tb(cfg);
  // 5% loss on every worker's uplink; enable host retransmission by
  // rebuilding workers is invasive, so flip the flag via the test API:
  for (int w = 0; w < 3; ++w) {
    tb.link(w).a_to_b().set_loss(0.05, static_cast<std::uint64_t>(w) + 77);
    tb.worker(w).enable_retransmit(sim::Duration::millis(1));
  }

  const std::size_t total = 256 * 32;
  int done = 0;
  for (int w = 0; w < 3; ++w) {
    std::vector<std::uint32_t> g(total, static_cast<std::uint32_t>(w + 1));
    tb.worker(w).start_allreduce(std::move(g), 1,
                                 [&](trioml::AllreduceResult r) {
                                   ++done;
                                   EXPECT_EQ(r.degraded_blocks, 0u);
                                   for (float v : r.grads) {
                                     EXPECT_NEAR(
                                         v,
                                         trioml::dequantize(6) / 3.0f,
                                         1e-6f);
                                   }
                                 });
  }
  tb.simulator().run_until(sim::Time(sim::Duration::seconds(2).ns()));
  EXPECT_EQ(done, 3) << "allreduce must survive 5% loss via retransmission";
  std::uint64_t retx = 0;
  for (int w = 0; w < 3; ++w) retx += tb.worker(w).retransmissions();
  EXPECT_GT(retx, 0u);
  // Duplicates caused by retransmitting delivered-but-unanswered blocks
  // are recognised by src_id and not double-added.
  EXPECT_EQ(tb.app(0).stats().blocks_completed, 32u);
}

// ---------------------------------------------------------------------------
// Mixed workloads: aggregation and plain IP forwarding share the PFE —
// "processing cycles are fungible between applications" (§2.2).

TEST(MixedTraffic, ForwardingAndAggregationCoexist) {
  trioml::TestbedConfig cfg;
  cfg.num_workers = 2;
  cfg.grads_per_packet = 512;
  cfg.window = 8;
  trioml::Testbed tb(cfg);

  // Route some bystander traffic through the same PFE.
  auto& fwd = tb.router().forwarding();
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{6, {}});
  fwd.add_route(net::Ipv4Addr::from_string("172.16.0.0"), 12, nh);
  int forwarded = 0;
  tb.router().attach_port_sink(6, [&](net::PacketPtr) { ++forwarded; });

  int done = 0;
  for (int w = 0; w < 2; ++w) {
    std::vector<std::uint32_t> g(512 * 16, 5);
    tb.worker(w).start_allreduce(std::move(g), 1,
                                 [&](trioml::AllreduceResult) { ++done; });
  }
  // Interleave 500 forwarded packets while the aggregation runs.
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> payload(200, 0);
    auto frame = net::build_udp_frame(
        {9, 9, 9, 9, 9, 9}, {8, 8, 8, 8, 8, 8},
        net::Ipv4Addr::from_string("10.0.0.1"),
        net::Ipv4Addr::from_string("172.16.3.4"), 7, 8, payload);
    tb.router().receive(net::Packet::make(std::move(frame)), 0);
  }
  tb.simulator().run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(forwarded, 500);
  EXPECT_EQ(tb.app(0).stats().blocks_completed, 16u);
}

}  // namespace
