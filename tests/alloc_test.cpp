// Allocation-count regression tests for the event-core fast path.
//
// The perf contract (docs/performance.md): once the queue's slot table,
// the heap array, and the recycler are warm, the hot paths never touch
// the global allocator — not per scheduled event (InlineCallback storage
// is inline), not per recycled packet (the recycler serves its cell and
// its frame bytes, copies included), not per PFE packet (inline XTXN
// payloads, recycled programs and action queues, the reorder ring). This
// binary overrides global operator new to count allocations and asserts
// *zero* across the measured steady-state windows, or a per-packet budget
// where host endpoints take part.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "jobs/best_effort.hpp"
#include "microcode/compiler.hpp"
#include "microcode/interpreter.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "trio/hash_table.hpp"
#include "trio/router.hpp"
#include "trio/sms.hpp"
#include "trioml/app.hpp"
#include "trioml/wire_format.hpp"

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

net::Buffer make_test_frame(const std::vector<std::uint8_t>& payload) {
  return net::build_udp_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                              net::Ipv4Addr::from_octets(10, 0, 0, 1),
                              net::Ipv4Addr::from_octets(10, 0, 0, 2), 1, 2,
                              payload);
}

net::PacketPtr make_test_packet(const std::vector<std::uint8_t>& payload) {
  return net::Packet::make(make_test_frame(payload));
}

TEST(AllocCount, RecycledPacketsAreAllocationFree) {
  // The workloads' payload sizes: netrpc, best-effort and 1 024-gradient
  // aggregation frames.
  for (const std::size_t bytes : {256, 1400, 4096}) {
    const std::vector<std::uint8_t> payload(bytes, 0xab);
    auto churn = [&payload] {
      auto p = make_test_packet(payload);
      auto copy = net::Packet::make(p->frame());  // a copying make
      // Dropped here: cells and frame bytes -> the recycler.
    };
    for (int i = 0; i < 64; ++i) churn();  // warm the recycler
    const std::uint64_t before = allocs();
    for (int i = 0; i < 4096; ++i) churn();
    EXPECT_EQ(allocs() - before, 0u)
        << "4096 recycled packets and copies of " << bytes << " B, zero allocs";
  }
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

/// Drops every frame it receives.
class SinkNode : public net::Node {
 public:
  void receive(net::PacketPtr, int) override {}
  std::string name() const override { return "sink"; }
};

TEST(AllocCount, BestEffortFramesAreAllocationFree) {
  // A paced best-effort tenant: every frame copies one constant payload
  // into recycled frame bytes and dies at the far end of the link.
  sim::Simulator sim;
  SinkNode host, peer;
  net::Link link(sim, 100.0, sim::Duration::micros(1));
  link.attach(host, 0, peer, 0);
  jobs::BestEffortSource::Config config;
  config.load = 0.5;
  jobs::BestEffortSource source(sim, link.a_to_b(), config);
  source.start(sim.now());
  sim.run_until(sim::Time(0) + sim::Duration::millis(1));  // warm-up
  const std::uint64_t frames_before = source.frames_offered();
  const std::uint64_t before = allocs();
  sim.run_until(sim::Time(0) + sim::Duration::millis(2));
  const std::uint64_t frames = source.frames_offered() - frames_before;
  EXPECT_GT(frames, 4000u) << "load 0.5 of 100 Gbps for 1 ms";
  EXPECT_EQ(allocs() - before, 0u) << frames << " best-effort frames";
  source.stop();
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

TEST(AllocCount, SmsSlabCycleReusesItsPages) {
  // Trio-ML's slab buffers as TrioMlApp lays them out: 4 KiB apart from
  // 64 B past a page boundary, so each spans two pages. A buffer that is
  // added to and then cleared hands both pages back to the recycler, and
  // the next buffer takes them: 1 000 buffers in turn cost two pages, plus
  // the page directory's growth.
  constexpr std::size_t kBuffers = 1000;
  constexpr std::size_t kBufferBytes = 4096;
  sim::Simulator sim;
  trio::SharedMemorySystem sms(sim, trio::Calibration{});
  const std::uint64_t base = sms.alloc_dram(kBuffers * kBufferBytes, 64);
  ASSERT_EQ(base % 4096, 64u);
  trio::XtxnReply reply;
  // Reads allocate no page: they warm the DRAM-cache tag chunks that the
  // buffers' first lines map to, which are not what this test counts.
  trio::XtxnRequest read;
  read.op = trio::XtxnOp::kRead;
  read.len = 4;
  for (std::size_t i = 0; i < kBuffers; ++i) {
    read.addr = base + i * kBufferBytes;
    sms.issue(read, reply);
  }
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.data.assign(kBufferBytes, 1);
  const std::uint64_t before = allocs();
  for (std::size_t i = 0; i < kBuffers; ++i) {
    add.addr = base + i * kBufferBytes;
    sms.issue(add, reply);
    sms.clear(add.addr, kBufferBytes);
  }
  EXPECT_LE(allocs() - before, 4u) << kBuffers << " buffers added and cleared";
  EXPECT_EQ(sms.peek_u32(base + (kBuffers - 1) * kBufferBytes), 0u);
}

TEST(AllocCount, HashTableBuildIsSmall) {
  // Every PFE builds a 16 384-bucket hash block before it holds a record:
  // one 4-byte chain head per bucket, not an empty vector per bucket
  // (384 KiB).
  sim::Simulator sim;
  const std::uint64_t before = alloc_bytes();
  { trio::HwHashTable table(sim, trio::Calibration{}, 1 << 14); }
  EXPECT_LE(alloc_bytes() - before, 80u * 1024) << "16 384 empty buckets";
}

TEST(AllocCount, HashTableChurnIsAllocationFree) {
  // Block records come and go with their blocks: once the node pool has
  // held the peak and the reply has held the longest aged list, fresh
  // keys' inserts, lookups and conditional deletes and a scan step that
  // reports aged keys take nothing from the allocator.
  sim::Simulator sim;
  trio::HwHashTable table(sim, trio::Calibration{});
  trio::XtxnRequest req;
  trio::XtxnReply reply;
  std::uint64_t next_key = 1;
  std::uint64_t hits = 0;
  std::uint64_t aged = 0;
  const auto xtxn = [&](trio::XtxnOp op, std::uint64_t arg0,
                        std::uint64_t arg1) {
    req.op = op;
    req.arg0 = arg0;
    req.arg1 = arg1;
    table.issue(req, reply);
    return reply.ok;
  };
  const auto round = [&] {
    const std::uint64_t first = next_key;
    next_key += 256;
    for (std::uint64_t k = first; k < next_key; ++k) {
      hits += xtxn(trio::XtxnOp::kHashInsert, k, 3 * k);
    }
    for (std::uint64_t k = first; k < next_key; ++k) {
      hits += xtxn(trio::XtxnOp::kHashLookup, k, 0);
    }
    // The first pass clears every REF flag, the second reports 64 keys.
    for (int pass = 0; pass < 2; ++pass) {
      xtxn(trio::XtxnOp::kHashScanStep, std::uint64_t(1) << 32, 0);
    }
    aged += reply.value;
    for (std::uint64_t k = first; k < next_key; ++k) {
      hits += xtxn(trio::XtxnOp::kHashDelete, k, 3 * k);
    }
  };
  for (int i = 0; i < 2; ++i) round();  // warm-up
  const std::uint64_t before = allocs();
  for (int i = 0; i < 16; ++i) round();
  EXPECT_EQ(allocs() - before, 0u) << "16 rounds of 256 fresh keys";
  EXPECT_EQ(hits, 18u * 3 * 256);
  EXPECT_EQ(aged, 18u * 64);
  EXPECT_EQ(table.size(), 0u);
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

TEST(AllocCount, MicrocodeFilterIsAllocationFree) {
  // The §3.2 filter program (BM_MicrocodeFilterProgram) on every packet:
  // its threads, their action queues and Forward's argument are recycled
  // or inline, so a warm burst allocates nothing.
  static const char* kSrc = R"(
    struct ether_t { dmac : 48; smac : 48; etype : 16; };
    struct ipv4_t { ver : 4; ihl : 4; tos : 8; len : 16; };
    virtual const DROP_CNT_BASE = 64;
    memory ether_t *ether_ptr = 0;
    process_ether:
    begin
      ir0 = 0;
      if (ether_ptr->etype == 0x0800) { goto process_ip; }
      goto count_dropped;
    end
    process_ip:
    begin
      const ipv4_t *ipv4_addr = ether_ptr + sizeof(ether_t);
      ir0 = 1;
      if (ipv4_addr->ver == 4 && ipv4_addr->ihl == 5) { goto fwd; }
      goto count_dropped;
    end
    count_dropped:
    begin
      const : addr = DROP_CNT_BASE + ir0 * 2;
      CounterIncPhys(addr, r_work.pkt_len);
      goto drop;
    end
    fwd:
    begin
      Forward(0);
      Exit();
    end
    drop:
    begin
      Drop();
    end
  )";
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  router.pfe(0).set_program_factory(
      microcode::make_program_factory(microcode::compile(kSrc)));
  int delivered = 0;
  router.attach_port_sink(1, [&delivered](net::PacketPtr) { ++delivered; });
  const net::Buffer frame = make_test_frame(std::vector<std::uint8_t>(64, 0));
  auto inject = [&](int n) {
    for (int i = 0; i < n; ++i) router.receive(net::Packet::make(frame), 0);
    sim.run();
  };
  inject(1024);  // warm-up
  const int warm_delivered = delivered;
  const std::uint64_t before = allocs();
  inject(1024);
  EXPECT_EQ(delivered - warm_delivered, 1024);
  EXPECT_EQ(allocs() - before, 0u) << "1024 filtered packets";
}

TEST(AllocCount, ActionQueueOf65ActionsIsAllocationFree) {
  // A straggler scan charging 64 missing sources queues 65 actions: its
  // ring doubles up to 128 slots (16 KiB), every step from the recycler.
  auto fill_and_drain = [] {
    trio::ActionQueue queue;
    for (int i = 0; i < 65; ++i) queue.push_back(trio::ActAsyncXtxn{});
    while (!queue.empty()) queue.pop_front();
  };
  fill_and_drain();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) fill_and_drain();
  EXPECT_EQ(allocs() - before, 0u) << "16 queues of 65 actions";
}

TEST(AllocCount, AggregationFrameBuildIsAllocationFree) {
  // The header and the gradients are written straight into the frame's
  // recycled bytes: no payload is staged on the side.
  const std::vector<std::uint32_t> grads(trioml::kMaxGradsPerPacket,
                                         0x01020304);
  const auto build = [&grads] {
    return trioml::build_aggregation_frame(
        {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
        net::Ipv4Addr::from_octets(10, 0, 0, 1),
        net::Ipv4Addr::from_octets(10, 0, 0, 2), 1, trioml::TrioMlHeader{},
        grads);
  };
  build();  // warm-up
  const std::uint64_t before = allocs();
  for (int i = 0; i < 16; ++i) {
    const net::Buffer frame = build();
    EXPECT_EQ(trioml::read_gradient(frame, grads.size() - 1), 0x01020304u);
  }
  EXPECT_EQ(allocs() - before, 0u) << "16 frames of 1024 gradients";
}

std::uint64_t app_build_allocs(trio::Pfe& pfe, std::size_t slabs) {
  const std::uint64_t before = allocs();
  auto app = std::make_unique<trioml::TrioMlApp>(pfe, slabs);
  return allocs() - before;
}

TEST(AllocCount, TrioMlAppBuildDoesNotGrowWithItsSlabPool) {
  // A slab is its index: the pool is one SRAM range, one DMEM range and
  // a free list of indices, so building it costs the same at any size.
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 2, 1, "r");
  const std::uint64_t small = app_build_allocs(router.pfe(0), 64);
  const std::uint64_t large = app_build_allocs(router.pfe(1), 8192);
  EXPECT_EQ(large, small) << "8192 slabs against 64";
  EXPECT_LE(large, 4u);
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

// Builds are not steady state, so their budgets are the counts measured
// when unobserved builds stopped naming metrics for the disabled registry
// (docs/performance.md section 8); the parent formatted every name.
TEST(AllocCount, UnobservedLeafRouterBuildNamesNoMetrics) {
  // A leaf of agg_large's 8x8: one PFE, eight worker ports and a trunk.
  sim::Simulator sim;
  const auto build = [&sim] {
    const std::uint64_t before = allocs();
    { trio::Router router(sim, trio::Calibration{}, 1, 9, "rack0"); }
    return allocs() - before;
  };
  build();  // first-use statics
  EXPECT_LE(build(), 58u) << "118 at the parent";
}

TEST(AllocCount, UnobservedClusterBuildNamesNoMetrics) {
  // agg_large's 8x8 spec, unobserved: nine routers, 64 host links and
  // workers, eight trunks.
  cluster::ClusterSpec spec;
  spec.racks = 8;
  spec.workers_per_rack = 8;
  spec.grads_per_packet = 1024;
  spec.fabric_link.gbps = 400;
  spec.fabric_link.latency = sim::Duration::micros(2);
  const auto build = [&spec] {
    const std::uint64_t before = allocs();
    { cluster::Cluster cl(spec); }
    return allocs() - before;
  };
  build();  // first-use statics
  EXPECT_LE(build(), 948u) << "1 506 at the parent";
}

TEST(AllocCount, AllreduceStepStaysUnderBudget) {
  // A warm 2x2 allreduce step at 1024 gradients per packet. Aggregation
  // packets cost the PFEs nothing and frames are built in place; what
  // allocates is the host endpoints' bookkeeping (about 185 allocations
  // per PFE packet before XTXN payloads went inline and programs were
  // recycled, 1.7 before frames were built in place, 0.8 after).
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
  constexpr std::uint64_t kBudgetPerPfePacket = 1;
  EXPECT_LE(n, kBudgetPerPfePacket * packets)
      << n << " allocations over " << packets << " PFE packets";
}

}  // namespace
