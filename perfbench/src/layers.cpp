#include "layers.hpp"

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "report.hpp"
#include "sim/simulator.hpp"
#include "trio/calibration.hpp"
#include "trio/hash_table.hpp"
#include "trio/sms.hpp"

namespace perfbench {
namespace {

constexpr int kBatches = 7;

/// Median ns per op over kBatches runs of `batch(ops)`, after one warm-up.
template <typename Batch>
double ns_per_op(std::uint64_t ops, Batch batch) {
  batch(ops);
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    batch(ops);
    ns.push_back(seconds_since(start) * 1e9 / double(ops));
  }
  return median(ns);
}

/// The closure shape of bench/micro_core.cpp's core_schedule_run: the size
/// of the link-delivery capture (this + peer + port + PacketPtr ~= 40 B).
struct LinkSizedWork {
  std::uint64_t* sink;
  void* peer;
  int port;
  std::uint64_t a, b, c;
  void operator()() const { *sink += a + b + c + std::uint64_t(port); }
};

double time_queue() {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  constexpr int kBatch = 1024;
  return ns_per_op(1 << 20, [&](std::uint64_t ops) {
    for (std::uint64_t done = 0; done < ops; done += kBatch) {
      for (int i = 0; i < kBatch; ++i) {
        sim.schedule_in(sim::Duration(i % 17), work);
      }
      sim.run();
    }
  });
}

double time_packet(std::size_t payload_bytes) {
  const std::vector<std::uint8_t> payload(payload_bytes, 0xab);
  const net::MacAddr src{1, 1, 1, 1, 1, 1};
  const net::MacAddr dst{2, 2, 2, 2, 2, 2};
  const auto ip_src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  const auto ip_dst = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  return ns_per_op(1 << 18, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto p = net::Packet::make(
          net::build_udp_frame(src, dst, ip_src, ip_dst, 1, 2, payload));
    }
  });
}

double time_sms(std::size_t words) {
  sim::Simulator sim;
  const trio::Calibration cal;
  trio::SharedMemorySystem sms(sim, cal);
  // A ring of aggregation slabs, as Trio-ML spreads blocks across DRAM.
  constexpr std::size_t kSlabs = 64;
  std::vector<trio::XtxnRequest> reqs(kSlabs);
  for (std::size_t s = 0; s < kSlabs; ++s) {
    reqs[s].op = trio::XtxnOp::kAddVec32;
    reqs[s].addr = sms.alloc_dram(words * 4, 64);
    reqs[s].data.assign(words * 4, std::uint8_t(s + 1));
  }
  const std::uint64_t ops = words >= 256 ? 1 << 12 : 1 << 16;
  return ns_per_op(ops, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      sms.issue(reqs[i % kSlabs], nullptr);
    }
  });
}

double time_hash() {
  sim::Simulator sim;
  const trio::Calibration cal;
  trio::HwHashTable table(sim, cal);
  // Block-record lifecycle over a working set of live keys: lookups by
  // the block's packets, the delete at completion, the insert of the next
  // block reusing the key.
  constexpr std::uint64_t kKeys = 4096;
  const auto key_of = [](std::uint64_t k) {
    return (0x01ull << 56) | (k * 0x9e3779b1ull & 0xffffffffffull);
  };
  for (std::uint64_t k = 0; k < kKeys; ++k) table.insert(key_of(k), k + 1);
  trio::XtxnRequest look;
  trio::XtxnRequest del;
  trio::XtxnRequest ins;
  look.op = trio::XtxnOp::kHashLookup;
  del.op = trio::XtxnOp::kHashDelete;
  ins.op = trio::XtxnOp::kHashInsert;
  return ns_per_op(1 << 18, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; i += 4) {
      const std::uint64_t k = i / 4 % kKeys;
      look.arg0 = del.arg0 = ins.arg0 = key_of(k);
      ins.arg1 = k + 1;
      table.issue(look, nullptr);
      table.issue(look, nullptr);
      table.issue(del, nullptr);
      table.issue(ins, nullptr);
    }
  });
}

}  // namespace

LayerTimings time_layers(std::size_t payload_bytes, std::size_t addvec_words) {
  LayerTimings t;
  t.queue_ns_per_event = time_queue();
  t.packet_ns_per_make = time_packet(payload_bytes);
  t.sms_ns_per_addvec = time_sms(addvec_words);
  t.hash_ns_per_op = time_hash();
  return t;
}

}  // namespace perfbench
