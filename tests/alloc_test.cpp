// Allocation-count regression tests for the event-core fast path.
//
// The perf contract (docs/performance.md): once the queue's slot table,
// the heap array, and the packet pools are warm, the hot paths never touch
// the global allocator — not per scheduled event (InlineCallback storage
// is inline), not per recycled packet (BufferPool + the recycler's packet
// cells), not per PFE packet (inline XTXN payloads, recycled programs and
// action queues, the reorder ring). This binary overrides global operator
// new to count allocations and asserts *zero* across the measured
// steady-state windows, or a per-packet budget where host endpoints take
// part.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "trio/router.hpp"
#include "trio/sms.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

// Out of line, because the counting operator new is too big to inline:
// GCC's -Wmismatched-new-delete flags a free() inlined into a caller that
// got its pointer from a call to operator new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

// Counting overrides: every allocation path funnels through these, and
// each counts one call and the bytes it asked for. delete is intentionally
// uncounted — the tests only care that the hot loops stop *acquiring*
// memory.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t alloc_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

/// A link-delivery-sized capture (~40 bytes): the event queue must store
/// it inline.
struct LinkSizedWork {
  std::uint64_t* sink;
  void* peer;
  int port;
  std::uint64_t a, b, c;
  void operator()() const { *sink += a + b + c + std::uint64_t(port); }
};

TEST(AllocCount, SteadyStateEventSchedulingIsAllocationFree) {
  static_assert(sim::InlineCallback::stores_inline<LinkSizedWork>());
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  // Warm-up: grows the heap array, the slot table and the freelist to
  // their steady-state footprint.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_in(sim::Duration(i % 17), work);
    }
    sim.run();
  }
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_in(sim::Duration(i % 17), work);
    }
    sim.run();
  }
  EXPECT_EQ(allocs() - before, 0u) << "16384 events should allocate nothing";
  EXPECT_GT(sink, 0u);
}

TEST(AllocCount, CancelAndRescheduleIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 5, 4, 5, 6};
  std::vector<sim::EventId> ids(512);
  auto batch = [&] {
    for (int i = 0; i < 512; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule_in(sim::Duration(100 + i % 13), work);
    }
    for (int i = 0; i < 512; ++i) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < 256; ++i) {
      sim.schedule_in(sim::Duration(i % 7), work);
    }
    sim.run();
  };
  for (int round = 0; round < 4; ++round) batch();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) batch();
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocCount, SameInstantBurstSteadyStateIsAllocationFree) {
  // Crowded timestamps: once the heap and the slot table are warm, bursts
  // of same-instant events dispatched by run() must not allocate.
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  auto batch = [&] {
    for (int i = 0; i < 1024; ++i) {
      // 1024 events crowded onto 4 distinct instants.
      sim.schedule_in(sim::Duration(1 + i % 4), work);
    }
    sim.run();
  };
  for (int round = 0; round < 4; ++round) batch();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) batch();
  EXPECT_EQ(allocs() - before, 0u)
      << "same-instant bursts should allocate nothing";
  EXPECT_GT(sink, 0u);
}

TEST(AllocCount, DeliveryBandSteadyStateIsAllocationFree) {
  // The cross-shard mailbox path: post() -> the destination's queue ->
  // band-ordered pop. With link-sized captures and warm vectors the
  // per-message cost must be zero allocations.
  sim::ShardedSimulator engine(/*num_domains=*/2, /*num_shards=*/1,
                               sim::Duration::micros(1));
  sim::Simulator& s = engine.domain_sim(0);
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  auto batch = [&] {
    for (int i = 0; i < 512; ++i) {
      engine.post(/*src_domain=*/0, /*dst_domain=*/1,
                  s.now() + sim::Duration(1 + i % 5), work);
    }
    engine.run();
  };
  for (int round = 0; round < 4; ++round) batch();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) batch();
  EXPECT_EQ(allocs() - before, 0u)
      << "8192 boundary messages should allocate nothing";
  EXPECT_GT(sink, 0u);
}

net::PacketPtr make_test_packet(const std::vector<std::uint8_t>& payload) {
  return net::Packet::make(net::build_udp_frame(
      {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
      net::Ipv4Addr::from_octets(10, 0, 0, 1),
      net::Ipv4Addr::from_octets(10, 0, 0, 2), 1, 2, payload));
}

TEST(AllocCount, RecycledPacketsAreAllocationFree) {
  const std::vector<std::uint8_t> payload(1024, 0xab);
  for (int i = 0; i < 64; ++i) {
    auto p = make_test_packet(payload);  // warm the pools
  }
  const std::uint64_t before = allocs();
  for (int i = 0; i < 4096; ++i) {
    auto p = make_test_packet(payload);
    // Dropped here: frame storage -> BufferPool, cell -> the recycler.
  }
  EXPECT_EQ(allocs() - before, 0u) << "4096 recycled packets, zero allocs";
}

/// Echo node: immediately retransmits every received frame on its own
/// endpoint — with its peer doing the same, one packet ping-pongs across
/// the two links forever, exercising link scheduling + packet transport.
class EchoNode : public net::Node {
 public:
  void attach(net::LinkEndpoint& tx) { tx_ = &tx; }
  void receive(net::PacketPtr pkt, int) override { tx_->send(std::move(pkt)); }
  std::string name() const override { return "echo"; }

 private:
  net::LinkEndpoint* tx_ = nullptr;
};

TEST(AllocCount, LinkEchoLoopSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  EchoNode a, b;
  net::Link ab(sim, 100.0, sim::Duration::micros(1));
  ab.attach(a, 0, b, 0);
  a.attach(ab.a_to_b());
  b.attach(ab.b_to_a());
  const std::vector<std::uint8_t> payload(1024, 0x5a);
  ASSERT_TRUE(ab.a_to_b().send(make_test_packet(payload)));
  // Warm-up: a few thousand hops.
  sim.run_until(sim::Time(0) + sim::Duration::millis(2));
  const std::uint64_t frames_before = ab.a_to_b().frames_sent();
  const std::uint64_t before = allocs();
  sim.run_until(sim::Time(0) + sim::Duration::millis(12));
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(ab.a_to_b().frames_sent(), frames_before + 100)
      << "the loop must actually have forwarded frames";
}

TEST(AllocCount, SmsFootprintGrowsWithTheAddressesTouched) {
  // Every PFE owns an SMS: a fresh one that has seen one DRAM line must
  // not pay for the whole address space or the whole DRAM cache.
  sim::Simulator sim;
  const std::uint64_t before = alloc_bytes();
  {
    trio::SharedMemorySystem sms(sim, trio::Calibration{});
    trio::XtxnRequest add;
    add.op = trio::XtxnOp::kAddVec32;
    add.addr = sms.alloc_dram(4096);
    add.data.assign(64, 1);
    trio::XtxnReply reply;
    sms.issue(add, reply);
    EXPECT_EQ(sms.peek_u32(add.addr), 0x01010101u);
  }
  EXPECT_LT(alloc_bytes() - before, 64u * 1024)
      << "SMS construction plus one DRAM line";
}

TEST(AllocCount, SmsRmwOpsAreAllocationFree) {
  sim::Simulator sim;
  trio::SharedMemorySystem sms(sim, trio::Calibration{});
  const std::uint64_t sram = sms.alloc_sram(4096, 64);
  const std::uint64_t dram = sms.alloc_dram(4096, 64);
  std::vector<trio::XtxnRequest> reqs(4);
  reqs[0].op = trio::XtxnOp::kAddVec32;
  reqs[1].op = trio::XtxnOp::kMinVec32;
  for (std::size_t i = 0; i < 2; ++i) {
    reqs[i].addr = dram + 64;
    reqs[i].data.assign(4096 - 128, 3);
  }
  reqs[2].op = trio::XtxnOp::kCounterInc;
  reqs[2].addr = sram;
  reqs[2].arg0 = 1500;
  reqs[3].op = trio::XtxnOp::kMaskedWrite64;
  reqs[3].addr = sram + 64;
  reqs[3].arg0 = 0x1234;
  reqs[3].arg1 = 0xffff;
  trio::XtxnReply reply;
  auto batch = [&] {
    for (const auto& req : reqs) sms.issue(req, reply);
    sms.poke_u64(dram + 8, sms.peek_u64(dram + 8) + 1);
    sms.poke_u32(sram + 128, sms.peek_u32(dram + 64) + sms.peek_u8(sram));
  };
  for (int round = 0; round < 4; ++round) batch();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 64; ++round) batch();
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(sms.peek_u64(sram), 68u);  // CounterInc packets
}

TEST(AllocCount, RouterForwardingSteadyStateIsAllocationFree) {
  // The full receive->PFE->port path: dispatch queue, a recycled
  // forwarding program, its FIB read (an inline 8-byte reply), the
  // reorder ticket and its output. The warm-up runs the same burst, so
  // every ring and pool has already grown to it.
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  const auto nh = router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  router.forwarding().add_route(net::Ipv4Addr::from_octets(0, 0, 0, 0), 0, nh);
  int delivered = 0;
  router.attach_port_sink(1, [&delivered](net::PacketPtr) { ++delivered; });
  const std::vector<std::uint8_t> payload(256, 0x11);
  auto inject = [&](int n) {
    for (int i = 0; i < n; ++i) {
      router.receive(make_test_packet(payload), 0);
    }
    sim.run();
  };
  inject(1024);  // warm-up
  const int warm_delivered = delivered;
  const std::uint64_t before = allocs();
  inject(1024);
  EXPECT_EQ(delivered - warm_delivered, 1024);
  EXPECT_EQ(allocs() - before, 0u) << "1024 forwarded packets";
}

/// The smallest native program: sends its packet to one nexthop.
class EmitToNexthop : public trio::PpeProgram {
 public:
  explicit EmitToNexthop(std::uint32_t nexthop) : nexthop_(nexthop) {}

  trio::Action step(trio::ThreadContext& ctx) override {
    if (emitted_) return trio::ActExit{1};
    emitted_ = true;
    return trio::ActEmitPacket{ctx.packet, nexthop_, 2};
  }

 private:
  std::uint32_t nexthop_;
  bool emitted_ = false;
};

TEST(AllocCount, MakeUniqueProgramsAreRecycled) {
  // A factory that makes its programs with plain std::make_unique: their
  // storage comes from the thread's recycler and goes back to it when the
  // thread ends, so a warm burst allocates nothing.
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  const auto nh = router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  router.pfe(0).set_program_factory(
      [nh](const net::Packet&) -> trio::ProgramPtr {
        return std::make_unique<EmitToNexthop>(nh);
      });
  int delivered = 0;
  router.attach_port_sink(1, [&delivered](net::PacketPtr) { ++delivered; });
  const std::vector<std::uint8_t> payload(256, 0x22);
  auto inject = [&](int n) {
    for (int i = 0; i < n; ++i) {
      router.receive(make_test_packet(payload), 0);
    }
    sim.run();
  };
  inject(1024);  // warm-up
  const int warm_delivered = delivered;
  const std::uint64_t before = allocs();
  inject(1024);
  EXPECT_EQ(delivered - warm_delivered, 1024);
  EXPECT_EQ(allocs() - before, 0u) << "1024 make_unique programs";
}

std::uint64_t pfe_packets(cluster::Cluster& cl) {
  std::uint64_t n = 0;
  for (int r = 0; r <= cl.num_racks(); ++r) {
    trio::Router& router = r < cl.num_racks() ? cl.leaf(r) : cl.spine();
    for (int p = 0; p < router.num_pfes(); ++p) {
      n += router.pfe(p).packets_in();
    }
  }
  return n;
}

TEST(AllocCount, AllreduceStepStaysUnderBudget) {
  // A warm 2x2 allreduce step at 1024 gradients per packet. Aggregation
  // packets cost the PFEs nothing; what allocates is building each
  // block's result and the host endpoints (about 185 allocations per PFE
  // packet before XTXN payloads went inline and programs were recycled).
  cluster::ClusterSpec spec;
  spec.grads_per_packet = 1024;
  cluster::Cluster cl(spec);
  const auto grads =
      cluster::patterned_gradients(cl.num_workers(), 8 * 1024);
  cluster::run_allreduce(cl, grads, 1);  // warm-up, both generations
  cluster::run_allreduce(cl, grads, 2);
  const std::uint64_t packets_before = pfe_packets(cl);
  const std::uint64_t before = allocs();
  const cluster::AllreduceRun run = cluster::run_allreduce(cl, grads, 1);
  const std::uint64_t n = allocs() - before;
  const std::uint64_t packets = pfe_packets(cl) - packets_before;
  EXPECT_EQ(run.finished, cl.num_workers());
  ASSERT_GT(packets, 0u);
  constexpr std::uint64_t kBudgetPerPfePacket = 4;
  EXPECT_LE(n, kBudgetPerPfePacket * packets)
      << n << " allocations over " << packets << " PFE packets";
}

}  // namespace
