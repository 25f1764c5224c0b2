// Timing-semantics tests for the PPE engine, MQSS, fabric and dispatch:
// the quantitative behaviours the calibration model promises.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "trio/router.hpp"

namespace {

/// A program that executes `n` instructions in one step and exits.
class BurnProgram : public trio::PpeProgram {
 public:
  BurnProgram(std::uint32_t n, sim::Time* done_at, sim::Simulator* sim)
      : n_(n), done_at_(done_at), sim_(sim) {}
  trio::Action step(trio::ThreadContext&) override {
    if (burned_) {
      if (done_at_ != nullptr) *done_at_ = sim_->now();
      return trio::ActExit{1};
    }
    burned_ = true;
    return trio::ActContinue{n_};
  }

 private:
  std::uint32_t n_;
  sim::Time* done_at_;
  sim::Simulator* sim_;
  bool burned_ = false;
};

class EngineTiming : public ::testing::Test {
 protected:
  EngineTiming() : router(sim, cal(), 1, 2) {}

  static trio::Calibration cal() {
    trio::Calibration c;
    c.ppes_per_pfe = 1;  // a single PPE exposes the issue bottleneck
    c.threads_per_ppe = 8;
    return c;
  }

  sim::Simulator sim;
  trio::Router router;
};

TEST_F(EngineTiming, SingleThreadLatencyIsInstructionSerial) {
  sim::Time done;
  router.pfe(0).spawn_internal(
      std::make_unique<BurnProgram>(100, &done, &sim), 0);
  sim.run();
  const trio::Calibration c = cal();
  // dispatch overhead + 100 instructions at instr_latency (+1 exit instr).
  const auto expected =
      c.dispatch_overhead.ns() + 101 * c.instr_latency.ns();
  EXPECT_NEAR(static_cast<double>(done.ns()), static_cast<double>(expected),
              static_cast<double>(c.instr_latency.ns()) * 2);
}

TEST_F(EngineTiming, ManyThreadsSaturateIssueBandwidth) {
  // 8 threads x 1000 instructions on ONE PPE: with 1 instruction issued
  // per ns, the total cannot beat 8000 ns of issue time; with 24 ns
  // per-thread latency, 8 threads pipeline to ~(8000*24/8? no—) the
  // makespan is bounded below by total_instructions * issue_interval.
  std::vector<sim::Time> done(8);
  for (int i = 0; i < 8; ++i) {
    router.pfe(0).spawn_internal(
        std::make_unique<BurnProgram>(1000, &done[static_cast<std::size_t>(i)],
                                      &sim),
        0);
  }
  sim.run();
  sim::Time last;
  for (const auto& t : done) last = std::max(last, t);
  const trio::Calibration c = cal();
  EXPECT_GE(last.ns(), 8 * 1000 * c.issue_interval.ns());
  // And it cannot be slower than fully serialised thread latency.
  EXPECT_LE(last.ns(),
            c.dispatch_overhead.ns() + 8 * 1001 * c.instr_latency.ns());
}

TEST_F(EngineTiming, ThreadSlotsBoundConcurrency) {
  // 8 thread slots; the 9th internal spawn queues until one frees.
  int spawned = 0;
  for (int i = 0; i < 9; ++i) {
    router.pfe(0).spawn_internal(
        std::make_unique<BurnProgram>(10, nullptr, &sim), 0);
    ++spawned;
  }
  EXPECT_EQ(router.pfe(0).active_threads(), 8);
  EXPECT_EQ(router.pfe(0).free_threads(), 0);
  sim.run();
  EXPECT_EQ(router.pfe(0).active_threads(), 0);
  EXPECT_EQ(spawned, 9);
}

// ---------------------------------------------------------------------------
// Sync vs async XTXN semantics

class XtxnProgram : public trio::PpeProgram {
 public:
  XtxnProgram(bool sync, sim::Time* done_at, sim::Simulator* sim)
      : sync_(sync), done_at_(done_at), sim_(sim) {}
  trio::Action step(trio::ThreadContext&) override {
    switch (stage_++) {
      case 0: {
        if (sync_) {
          trio::ActSyncXtxn rd;
          rd.req.op = trio::XtxnOp::kRead;
          rd.req.addr = 1024;
          rd.req.len = 8;
          rd.instructions = 1;
          return rd;
        }
        trio::ActAsyncXtxn wr;
        wr.req.op = trio::XtxnOp::kWrite;
        wr.req.addr = 1024;
        wr.req.data.assign(8, 1);
        wr.instructions = 1;
        return wr;
      }
      default:
        *done_at_ = sim_->now();
        return trio::ActExit{1};
    }
  }

 private:
  bool sync_;
  sim::Time* done_at_;
  sim::Simulator* sim_;
  int stage_ = 0;
};

TEST_F(EngineTiming, SyncXtxnSuspendsAsyncDoesNot) {
  sim::Time sync_done, async_done;
  router.pfe(0).spawn_internal(
      std::make_unique<XtxnProgram>(true, &sync_done, &sim), 0);
  router.pfe(0).spawn_internal(
      std::make_unique<XtxnProgram>(false, &async_done, &sim), 0);
  sim.run();
  // The sync thread waited for the ~70 ns SRAM round trip; the async
  // thread continued immediately.
  EXPECT_GT(sync_done.ns() - async_done.ns(), 50);
}

class JoinProgram : public trio::PpeProgram {
 public:
  JoinProgram(sim::Time* issued, sim::Time* joined, sim::Simulator* sim)
      : issued_(issued), joined_(joined), sim_(sim) {}
  trio::Action step(trio::ThreadContext&) override {
    switch (stage_++) {
      case 0: {
        trio::ActAsyncXtxn add;
        add.req.op = trio::XtxnOp::kAddVec32;
        add.req.addr = 0;
        add.req.data.assign(64, 1);  // 32 service cycles on bank 0
        add.instructions = 1;
        return add;
      }
      case 1:
        *issued_ = sim_->now();
        return trio::ActJoinAsync{1};
      default:
        *joined_ = sim_->now();
        return trio::ActExit{1};
    }
  }

 private:
  sim::Time* issued_;
  sim::Time* joined_;
  sim::Simulator* sim_;
  int stage_ = 0;
};

TEST_F(EngineTiming, JoinWaitsForPostedOperations) {
  sim::Time issued, joined;
  router.pfe(0).spawn_internal(
      std::make_unique<JoinProgram>(&issued, &joined, &sim), 0);
  sim.run();
  // The join resumes only after the RMW engine finished the adds and the
  // SRAM-tier reply time elapsed (~bank service + latency).
  EXPECT_GT((joined - issued).ns(), 60);
}

// ---------------------------------------------------------------------------
// MQSS constraints

TEST(Mqss, RejectsOversizedChunks) {
  sim::Simulator sim;
  trio::Calibration c;
  trio::Mqss mqss(sim, c);
  net::Packet pkt{net::Buffer(1000)};
  trio::XtxnReply reply;
  EXPECT_THROW(mqss.tail_read(pkt, 0, 128, reply), std::invalid_argument);
  EXPECT_THROW(mqss.tail_read(pkt, 900, 64, reply), std::out_of_range);
  EXPECT_THROW(mqss.pmem_write(512, reply), std::invalid_argument);
}

TEST(Mqss, TailReadReturnsTheRightBytes) {
  sim::Simulator sim;
  trio::Calibration c;
  trio::Mqss mqss(sim, c);
  net::Buffer frame(400);
  for (std::size_t i = 0; i < 400; ++i) {
    frame.set_u8(i, static_cast<std::uint8_t>(i));
  }
  net::Packet pkt{std::move(frame)};
  trio::XtxnReply reply;
  reply.ok = false;
  reply.value = 7;
  const sim::Time at = mqss.tail_read(pkt, 10, 16, reply);
  // The bytes land at issue; the reply time is later.
  EXPECT_GT(at, sim.now());
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.value, 0u);
  ASSERT_EQ(reply.data.size(), 16u);
  // Tail offset 10 = frame byte 192 + 10.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(reply.data[i], static_cast<std::uint8_t>(202 + i)) << i;
  }
  EXPECT_EQ(mqss.tail_bytes_read(), 16u);
}

// ---------------------------------------------------------------------------
// Sync XTXN completion: the block writes the reply at issue, the PPE wakes
// the thread at the reply time.

/// Issues a sync SMS read, a sync hash lookup and a sync MQSS tail read,
/// each followed by a posted XTXN, recording what every step sees.
class SyncProbeProgram : public trio::PpeProgram {
 public:
  struct Seen {
    sim::Time at;
    trio::XtxnReply reply;
  };
  /// Called at each sync issue with the step's time and instruction count.
  using OnIssue = std::function<void(const trio::XtxnRequest&, sim::Time,
                                     std::uint32_t, const net::PacketPtr&)>;

  SyncProbeProgram(sim::Simulator& sim, std::vector<trio::XtxnRequest> syncs,
                   OnIssue on_issue, std::vector<Seen>* resumed,
                   std::vector<Seen>* after_posted)
      : sim_(sim),
        syncs_(std::move(syncs)),
        on_issue_(std::move(on_issue)),
        resumed_(resumed),
        after_posted_(after_posted) {}

  trio::Action step(trio::ThreadContext& ctx) override {
    // Odd steps follow a sync XTXN and issue a posted one; even steps
    // after the first follow that posted XTXN and issue the next sync one.
    const std::size_t stage = stage_++;
    if (stage % 2 == 1) {
      resumed_->push_back({sim_.now(), ctx.reply});
      trio::ActAsyncXtxn wr;  // posted: must leave ctx.reply alone
      wr.req.op = trio::XtxnOp::kWrite;
      wr.req.addr = 8192;
      wr.req.data.assign(8, 0x5a);
      return wr;
    }
    if (stage > 0) after_posted_->push_back({sim_.now(), ctx.reply});
    const std::size_t i = stage / 2;
    if (i == syncs_.size()) return trio::ActExit{1};
    trio::ActSyncXtxn sx;
    sx.req = syncs_[i];
    sx.instructions = static_cast<std::uint32_t>(2 + i);
    on_issue_(sx.req, sim_.now(), sx.instructions, ctx.packet);
    return sx;
  }

 private:
  sim::Simulator& sim_;
  std::vector<trio::XtxnRequest> syncs_;
  OnIssue on_issue_;
  std::vector<Seen>* resumed_;
  std::vector<Seen>* after_posted_;
  std::size_t stage_ = 0;
};

TEST(Ppe, SyncXtxnResumesAtItsReplyTime) {
  sim::Simulator sim;
  const trio::Calibration cal;
  trio::Router router(sim, cal, 1, 2);
  trio::Pfe& pfe = router.pfe(0);

  // The same state in the PFE's blocks and in idle reference copies, so a
  // reference issued at the same instant computes the same reply.
  trio::SharedMemorySystem ref_sms(sim, cal);
  trio::HwHashTable ref_hash(sim, cal);
  trio::Mqss ref_mqss(sim, cal);
  const std::uint64_t addr = pfe.sms().alloc_sram(64, 64);
  std::vector<std::uint8_t> bytes(16);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = std::uint8_t(3 * i + 1);
  pfe.sms().poke_bytes(addr, bytes);
  ref_sms.poke_bytes(addr, bytes);
  ASSERT_TRUE(pfe.hash_table().insert(0xfeed, 0xbeef));
  ASSERT_TRUE(ref_hash.insert(0xfeed, 0xbeef));

  std::vector<trio::XtxnRequest> syncs(3);
  syncs[0].op = trio::XtxnOp::kRead;
  syncs[0].addr = addr;
  syncs[0].len = 16;
  syncs[1].op = trio::XtxnOp::kHashLookup;
  syncs[1].arg0 = 0xfeed;
  syncs[2].op = trio::XtxnOp::kTailRead;
  syncs[2].addr = 10;
  syncs[2].len = 32;

  std::vector<SyncProbeProgram::Seen> expected, resumed, after_posted;
  auto on_issue = [&](const trio::XtxnRequest& req, sim::Time now,
                      std::uint32_t k, const net::PacketPtr& pkt) {
    // One thread on an idle PPE: the XTXN issues when the step's k
    // instructions have run.
    sim.schedule_at(now + cal.instr_latency * k, [&, req, pkt] {
      SyncProbeProgram::Seen want;
      if (req.op == trio::XtxnOp::kRead) {
        want.at = ref_sms.issue(req, want.reply);
      } else if (req.op == trio::XtxnOp::kHashLookup) {
        want.at = ref_hash.issue(req, want.reply);
      } else {
        want.at = ref_mqss.tail_read(*pkt, req.addr, req.len, want.reply);
      }
      expected.push_back(std::move(want));
    });
  };
  pfe.set_program_factory([&](const net::Packet&) -> trio::ProgramPtr {
    return std::make_unique<SyncProbeProgram>(sim, syncs, on_issue, &resumed,
                                              &after_posted);
  });
  net::Buffer frame(400);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame.set_u8(i, static_cast<std::uint8_t>(i * 7));
  }
  router.receive(net::Packet::make(std::move(frame)), 0);
  sim.run();

  ASSERT_EQ(expected.size(), 3u);
  ASSERT_EQ(resumed.size(), 3u);
  ASSERT_EQ(after_posted.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed[i].at, expected[i].at) << "sync XTXN " << i;
    EXPECT_EQ(resumed[i].reply, expected[i].reply) << "sync XTXN " << i;
    EXPECT_EQ(after_posted[i].reply, resumed[i].reply)
        << "the posted XTXN after sync XTXN " << i << " changed ctx.reply";
  }
  EXPECT_EQ(resumed[0].reply.data, trio::XtxnPayload(bytes));
  EXPECT_TRUE(resumed[1].reply.ok);
  EXPECT_EQ(resumed[1].reply.value, 0xbeefu);
  ASSERT_EQ(resumed[2].reply.data.size(), 32u);
  EXPECT_EQ(resumed[2].reply.data[0], static_cast<std::uint8_t>(202 * 7));
}

// ---------------------------------------------------------------------------
// Fabric rate limiting

TEST(Fabric, InjectionRateBoundsThroughput) {
  sim::Simulator sim;
  trio::Calibration c;
  c.fabric_gbps = 100.0;
  trio::Fabric fabric(sim, c, 2);
  sim::Time last;
  int delivered = 0;
  // 100 frames of 1250 B at 100 Gbps: 100 ns serialization each.
  for (int i = 0; i < 100; ++i) {
    fabric.send(0, net::Packet::make(net::Buffer(1250)),
                [&](net::PacketPtr) {
                  ++delivered;
                  last = sim.now();
                });
  }
  sim.run();
  EXPECT_EQ(delivered, 100);
  EXPECT_GE(last.ns(), 100 * 100);  // at least the serialization time
  EXPECT_EQ(fabric.bytes(), 125'000u);
}

// ---------------------------------------------------------------------------
// Flow hash stability (Dispatch/Reorder contract)

TEST(FlowHash, SameTupleSameHashDifferentTupleDifferent) {
  auto frame = [](const char* src, std::uint16_t sport) {
    std::vector<std::uint8_t> payload(32, 0);
    return net::build_udp_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                                net::Ipv4Addr::from_string(src),
                                net::Ipv4Addr::from_string("10.0.0.9"),
                                sport, 80, payload);
  };
  const auto h1 = trio::compute_flow_hash(frame("10.0.0.1", 1000));
  const auto h2 = trio::compute_flow_hash(frame("10.0.0.1", 1000));
  const auto h3 = trio::compute_flow_hash(frame("10.0.0.2", 1000));
  const auto h4 = trio::compute_flow_hash(frame("10.0.0.1", 1001));
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_NE(h1, h4);
  EXPECT_NE(h1, 0u);  // 0 is reserved
}

TEST(FlowHash, NonIpFallsIntoConstantFlow) {
  net::Buffer junk(64);
  EXPECT_EQ(trio::compute_flow_hash(junk), 1u);
}

}  // namespace
