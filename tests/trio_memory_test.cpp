#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "sim/simulator.hpp"
#include "trio/calibration.hpp"
#include "trio/sms.hpp"

namespace {

class SmsTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  trio::Calibration cal;
  trio::SharedMemorySystem sms{sim, trio::Calibration{}};
  trio::XtxnReply posted;  // reply of posted requests, unread

  /// Issues `req` as a thread's sync XTXN would: the reply is written at
  /// issue, and the clock then runs to the reply time the SMS returned.
  trio::XtxnReply issue_sync(trio::XtxnRequest req) {
    trio::XtxnReply out;
    const sim::Time issued = sim.now();
    const sim::Time reply_at = sms.issue(req, out);
    EXPECT_GT(reply_at, issued);
    bool woke = false;
    sim.schedule_at(reply_at, [&] { woke = true; });
    sim.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(sim.now(), reply_at);
    return out;
  }
};

TEST_F(SmsTest, ReadWriteRoundTrip) {
  trio::XtxnRequest wr;
  wr.op = trio::XtxnOp::kWrite;
  wr.addr = 128;
  wr.data = {1, 2, 3, 4, 5, 6, 7, 8};
  sms.issue(wr, posted);

  trio::XtxnRequest rd;
  rd.op = trio::XtxnOp::kRead;
  rd.addr = 128;
  rd.len = 8;
  const auto reply = issue_sync(rd);
  EXPECT_EQ(reply.data, wr.data);
}

TEST_F(SmsTest, CounterIncUpdatesPacketAndByteHalves) {
  trio::XtxnRequest inc;
  inc.op = trio::XtxnOp::kCounterInc;
  inc.addr = 256;
  inc.arg0 = 1500;
  sms.issue(inc, posted);
  sms.issue(inc, posted);
  EXPECT_EQ(sms.peek_u64(256), 2u);        // packets
  EXPECT_EQ(sms.peek_u64(256 + 8), 3000u);  // bytes
}

TEST_F(SmsTest, FetchOpsReturnOldValue) {
  sms.poke_u64(512, 0xf0);
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kFetchOr64;
  req.addr = 512;
  req.arg0 = 0x0f;
  EXPECT_EQ(issue_sync(req).value, 0xf0u);
  EXPECT_EQ(sms.peek_u64(512), 0xffu);

  req.op = trio::XtxnOp::kFetchAnd64;
  req.arg0 = 0x3c;
  EXPECT_EQ(issue_sync(req).value, 0xffu);
  EXPECT_EQ(sms.peek_u64(512), 0x3cu);

  req.op = trio::XtxnOp::kFetchXor64;
  req.arg0 = 0xff;
  issue_sync(req);
  EXPECT_EQ(sms.peek_u64(512), 0xc3u);

  req.op = trio::XtxnOp::kFetchClear64;
  req.arg0 = 0x03;
  issue_sync(req);
  EXPECT_EQ(sms.peek_u64(512), 0xc0u);

  req.op = trio::XtxnOp::kFetchSwap64;
  req.arg0 = 0x1234;
  EXPECT_EQ(issue_sync(req).value, 0xc0u);
  EXPECT_EQ(sms.peek_u64(512), 0x1234u);
}

TEST_F(SmsTest, FetchAdd32) {
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kFetchAdd32;
  req.addr = 640;
  req.arg0 = 7;
  EXPECT_EQ(issue_sync(req).value, 0u);
  EXPECT_EQ(issue_sync(req).value, 7u);
  EXPECT_EQ(sms.peek_u32(640), 14u);
}

TEST_F(SmsTest, MaskedWrite) {
  sms.poke_u64(704, 0xaaaaaaaaaaaaaaaaull);
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kMaskedWrite64;
  req.addr = 704;
  req.arg0 = 0x5555555555555555ull;  // value
  req.arg1 = 0x00000000ffffffffull;  // mask: low half only
  sms.issue(req, posted);
  EXPECT_EQ(sms.peek_u64(704), 0xaaaaaaaa55555555ull);
}

TEST_F(SmsTest, AddVec32SumsGradients) {
  std::vector<std::uint8_t> grads;
  for (std::uint32_t v : {10u, 20u, 30u, 40u}) {
    for (int i = 0; i < 4; ++i) grads.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kAddVec32;
  req.addr = 1024;
  req.data = grads;
  sms.issue(req, posted);
  sms.issue(req, posted);
  EXPECT_EQ(sms.peek_u32(1024), 20u);
  EXPECT_EQ(sms.peek_u32(1028), 40u);
  EXPECT_EQ(sms.peek_u32(1032), 60u);
  EXPECT_EQ(sms.peek_u32(1036), 80u);
  EXPECT_EQ(sms.add32_ops(), 8u);
}

TEST_F(SmsTest, AddVec32WrapsAround32Bits) {
  sms.poke_u32(2048, 0xffffffffu);
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kAddVec32;
  req.addr = 2048;
  req.data = {2, 0, 0, 0};
  sms.issue(req, posted);
  EXPECT_EQ(sms.peek_u32(2048), 1u);  // modular arithmetic, no spill
}

TEST_F(SmsTest, PolicerConformsThenExceeds) {
  trio::PolicerConfig pc;
  pc.rate_bytes_per_sec = 1'000'000;  // 1 MB/s
  pc.burst_bytes = 3000;
  sms.configure_policer(4096, pc);

  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kPolicerCheck;
  req.addr = 4096;
  req.arg0 = 1500;
  EXPECT_EQ(issue_sync(req).value, 1u);  // conform (burst)
  EXPECT_EQ(issue_sync(req).value, 1u);  // conform (burst)
  EXPECT_EQ(issue_sync(req).value, 0u);  // exceed: bucket empty
}

TEST_F(SmsTest, PolicerRefillsOverTime) {
  trio::PolicerConfig pc;
  pc.rate_bytes_per_sec = 1'000'000'000;  // 1 GB/s
  pc.burst_bytes = 1000;
  sms.configure_policer(8192, pc);

  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kPolicerCheck;
  req.addr = 8192;
  req.arg0 = 1000;
  EXPECT_EQ(issue_sync(req).value, 1u);
  EXPECT_EQ(issue_sync(req).value, 0u);
  // 1 us at 1 GB/s refills 1000 bytes.
  sim.schedule_in(sim::Duration::micros(2), [] {});
  sim.run();
  EXPECT_EQ(issue_sync(req).value, 1u);
}

TEST_F(SmsTest, SramLatencyFasterThanDram) {
  trio::XtxnRequest sram;
  sram.op = trio::XtxnOp::kRead;
  sram.addr = 64;  // SRAM region
  sram.len = 8;
  const sim::Time t0 = sim.now();
  const sim::Time sram_reply = sms.issue(sram, posted);

  trio::XtxnRequest dram;
  dram.op = trio::XtxnOp::kRead;
  dram.addr = sms.dram_base() + (100u << 20);  // cold DRAM line
  dram.len = 8;
  const sim::Time dram_reply = sms.issue(dram, posted);
  EXPECT_LT((sram_reply - t0).ns(), 150);
  EXPECT_GT((dram_reply - t0).ns(), 300);
}

TEST_F(SmsTest, DramCacheHitsAfterFirstTouch) {
  trio::XtxnRequest rd;
  rd.op = trio::XtxnOp::kRead;
  rd.addr = sms.dram_base() + 4096;
  rd.len = 8;
  sms.issue(rd, posted);
  EXPECT_EQ(sms.dram_cache_misses(), 1u);
  sms.issue(rd, posted);
  EXPECT_EQ(sms.dram_cache_hits(), 1u);
  // A line one cache size (16 MiB) away maps to the same set and evicts it.
  rd.addr += cal.dram_cache_bytes;
  sms.issue(rd, posted);
  rd.addr -= cal.dram_cache_bytes;
  sms.issue(rd, posted);
  EXPECT_EQ(sms.dram_cache_hits(), 1u);
  EXPECT_EQ(sms.dram_cache_misses(), 3u);
}

TEST_F(SmsTest, BankSerializationCreatesBackpressure) {
  // Hammer one bank with large vector adds: replies must spread out in
  // time (8 bytes/cycle/engine), unlike adds spread across banks.
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.addr = 0;  // bank 0
  add.data.assign(64, 1);  // 16 adds x 2 cycles = 32 cycles service
  sim::Time last;
  for (int i = 0; i < 10; ++i) last = sms.issue(add, posted);
  // Total >= 10 * 32 cycles of service on one engine.
  EXPECT_GE((last - sim.now()).ns(), 10 * 32 - 32);
}

TEST_F(SmsTest, BanksAreInterleavedAt64Bytes) {
  EXPECT_EQ(sms.bank_of(0), 0);
  EXPECT_EQ(sms.bank_of(63), 0);
  EXPECT_EQ(sms.bank_of(64), 1);
  EXPECT_EQ(sms.bank_of(64 * static_cast<std::uint64_t>(sms.bank_count())),
            0);
}

TEST_F(SmsTest, LineOwnershipModeIsSlower) {
  // Ablation (§2.3): conventional lock-the-line RMW occupies the bank for
  // the full round trip; Trio's near-memory engines only for the op.
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.addr = 0;
  add.data.assign(64, 1);

  sim::Time rmw_last;
  for (int i = 0; i < 20; ++i) rmw_last = sms.issue(add, posted);

  trio::SharedMemorySystem slow(sim, trio::Calibration{});
  slow.set_line_ownership_mode(true);
  sim::Time own_last;
  for (int i = 0; i < 20; ++i) own_last = slow.issue(add, posted);
  EXPECT_GT((own_last - sim.now()).ns(), 2 * (rmw_last - sim.now()).ns());
}

TEST_F(SmsTest, AllocatorsRespectRegions) {
  const auto a = sms.alloc_sram(100);
  const auto b = sms.alloc_sram(100);
  EXPECT_LT(a, b);
  EXPECT_LT(b, trio::Calibration{}.sram_bytes);
  const auto d = sms.alloc_dram(1 << 20);
  EXPECT_GE(d, sms.dram_base());
}

TEST_F(SmsTest, SramExhaustionThrows) {
  EXPECT_THROW(sms.alloc_sram(trio::Calibration{}.sram_bytes + 1),
               std::runtime_error);
}

TEST_F(SmsTest, OutOfRangeAccessThrows) {
  trio::XtxnRequest rd;
  rd.op = trio::XtxnOp::kRead;
  rd.addr = sms.dram_base() + trio::Calibration{}.dram_bytes;
  rd.len = 8;
  EXPECT_THROW(sms.issue(rd, posted), std::out_of_range);
}

TEST_F(SmsTest, AccessesPastTheEndThrowBeforeTouchingMemory) {
  const std::uint64_t end = sms.dram_base() + trio::Calibration{}.dram_bytes;
  EXPECT_THROW(sms.poke_u64(end - 4, 0x1122334455667788ull),
               std::out_of_range);
  EXPECT_EQ(sms.peek_u32(end - 4), 0u);  // all or nothing
  EXPECT_THROW(sms.poke_bytes(end - 2, {1, 2, 3}), std::out_of_range);
  EXPECT_EQ(sms.peek_u8(end - 1), 0u);
  EXPECT_THROW(sms.peek_u64(end + 4096), std::out_of_range);
  EXPECT_THROW(sms.peek_u32(end - 2), std::out_of_range);
  EXPECT_THROW(sms.peek_bytes(end - 8, 9), std::out_of_range);
  EXPECT_THROW(sms.clear(end - 8, 9), std::out_of_range);
  EXPECT_THROW(sms.peek_u64(~0ull - 3), std::out_of_range);  // addr + len wraps
  sms.poke_u64(end - 8, 0x0102030405060708ull);
  EXPECT_EQ(sms.peek_u64(end - 8), 0x0102030405060708ull);
}

/// Byte-map reference of the SMS store: bytes never written read as zero.
struct ByteModel {
  std::map<std::uint64_t, std::uint8_t> bytes;

  std::uint8_t get(std::uint64_t a) const {
    const auto it = bytes.find(a);
    return it == bytes.end() ? 0 : it->second;
  }
  std::uint64_t word(std::uint64_t a, int n) const {  // little-endian
    std::uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i) v = v << 8 | get(a + std::uint64_t(i));
    return v;
  }
  void put(std::uint64_t a, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes[a + std::uint64_t(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  void zero(std::uint64_t a, std::uint64_t len) {
    bytes.erase(bytes.lower_bound(a), bytes.lower_bound(a + len));
  }
};

TEST_F(SmsTest, StoreMatchesAByteModelUnderRandomOperations) {
  // Random peeks, pokes, clears and XTXN ops over windows that put words
  // across 4 KiB pages, on the SRAM/DRAM boundary, high in DRAM and on
  // the last bytes of the address space; every reply and, at the end,
  // every byte of every window must equal the byte model's. Clears of
  // whole pages, and of spans that leave a page all zero, release pages
  // that later ops write again.
  const std::uint64_t end = sms.dram_base() + cal.dram_bytes;
  struct Window {
    std::uint64_t base, len;
  };
  const std::vector<Window> windows = {
      {0, 16384},
      {sms.dram_base() - 8192, 16384},
      {sms.dram_base() + (3ull << 30) + 4096 - 40, 12288},
      {end - 12288, 12288},
  };
  // Policer records only ever see configure_policer and PolicerCheck, so
  // their fields hold sane rates and times.
  const std::uint64_t policers = sms.dram_base() + (1ull << 30);
  constexpr int kPolicers = 8;
  ByteModel model;
  std::mt19937_64 rng(20260417);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  const auto random_bytes = [&](std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng() % 4 ? rng() : 0);
    return v;
  };
  for (int p = 0; p < kPolicers; ++p) {
    trio::PolicerConfig pc;
    pc.rate_bytes_per_sec = 1'000'000ull << below(12);
    pc.burst_bytes = 500 + below(5000);
    const std::uint64_t a = policers + 32u * p;
    sms.configure_policer(a, pc);
    model.put(a, pc.rate_bytes_per_sec, 8);
    model.put(a + 8, pc.burst_bytes, 8);
    model.put(a + 16, pc.burst_bytes, 8);
    model.put(a + 24, std::uint64_t(sim.now().ns()), 8);
  }

  constexpr std::uint64_t kMaxLen = 600;
  for (int step = 0; step < 20000; ++step) {
    if (step % 97 == 0) {
      sim.schedule_in(sim::Duration(std::int64_t(below(5000))), [] {});
      sim.run();
    }
    const Window& w = windows[below(windows.size())];
    // Mostly small words near page edges, sometimes anywhere.
    std::uint64_t addr =
        below(3) == 0 ? w.base + below(w.len)
                      : (w.base + below(w.len) + 4095) / 4096 * 4096 - 16 +
                            below(32);
    const int kind = static_cast<int>(below(21));
    std::uint64_t whole_pages = 0;
    if (kind == 20) {  // page-aligned whole pages inside the window
      const std::uint64_t first = (w.base + 4095) / 4096 * 4096;
      const std::uint64_t pages = (w.base + w.len - first) / 4096;
      const std::uint64_t k = below(pages);
      addr = first + 4096 * k;
      whole_pages = 1 + below(std::min<std::uint64_t>(2, pages - k));
    }
    const auto in_range = [&](std::uint64_t len) {
      return addr <= end && len <= end - addr;
    };
    SCOPED_TRACE("step " + std::to_string(step) + " kind " +
                 std::to_string(kind) + " addr " + std::to_string(addr));
    if (kind < 3) {  // peek u8 / u32 / u64
      const int n = kind == 0 ? 1 : kind == 1 ? 4 : 8;
      if (!in_range(std::uint64_t(n))) {
        EXPECT_THROW(kind == 0   ? sms.peek_u8(addr)
                     : kind == 1 ? sms.peek_u32(addr)
                                 : sms.peek_u64(addr),
                     std::out_of_range);
        continue;
      }
      const std::uint64_t got = kind == 0   ? sms.peek_u8(addr)
                                : kind == 1 ? sms.peek_u32(addr)
                                            : sms.peek_u64(addr);
      EXPECT_EQ(got, model.word(addr, n));
    } else if (kind < 6) {  // poke u8 / u32 / u64
      const int n = kind == 3 ? 1 : kind == 4 ? 4 : 8;
      const std::uint64_t v = rng();
      const auto poke = [&] {
        if (kind == 3) sms.poke_u8(addr, static_cast<std::uint8_t>(v));
        if (kind == 4) sms.poke_u32(addr, static_cast<std::uint32_t>(v));
        if (kind == 5) sms.poke_u64(addr, v);
      };
      if (!in_range(std::uint64_t(n))) {
        EXPECT_THROW(poke(), std::out_of_range);
        continue;
      }
      poke();
      model.put(addr, v, n);
    } else if (kind == 6) {  // peek_bytes
      const std::uint64_t len = below(kMaxLen);
      if (!in_range(len)) {
        EXPECT_THROW(sms.peek_bytes(addr, len), std::out_of_range);
        continue;
      }
      const auto got = sms.peek_bytes(addr, len);
      for (std::uint64_t i = 0; i < len; ++i) {
        ASSERT_EQ(got[i], model.get(addr + i)) << "byte " << i;
      }
    } else if (kind == 7 || kind == 8) {  // poke_bytes / clear
      const std::uint64_t len = below(kMaxLen);
      const auto data = random_bytes(len);
      if (!in_range(len)) {
        EXPECT_THROW(kind == 7 ? sms.poke_bytes(addr, data)
                               : sms.clear(addr, len),
                     std::out_of_range);
        continue;
      }
      if (kind == 7) {
        sms.poke_bytes(addr, data);
      } else {
        sms.clear(addr, len);
      }
      for (std::uint64_t i = 0; i < len; ++i) {
        model.put(addr + i, kind == 7 ? data[i] : 0, 1);
      }
    } else if (kind == 20) {  // clear of whole pages
      sms.clear(addr, whole_pages * 4096);
      model.zero(addr, whole_pages * 4096);
    } else {  // one XTXN
      trio::XtxnRequest req;
      req.addr = addr;
      req.arg0 = rng();
      req.arg1 = rng();
      std::uint64_t span = 8;
      trio::XtxnReply want;
      switch (kind) {
        case 9:
          req.op = trio::XtxnOp::kRead;
          req.len = static_cast<std::uint32_t>(below(kMaxLen));
          span = req.len;
          break;
        case 10:
          req.op = trio::XtxnOp::kWrite;
          req.data = random_bytes(below(kMaxLen));
          span = req.data.size();
          break;
        case 11:
          req.op = trio::XtxnOp::kCounterInc;
          req.arg0 = below(10000);
          span = 16;
          break;
        case 12:
          req.op = trio::XtxnOp::kPolicerCheck;
          req.addr = addr = policers + 32 * below(kPolicers);
          req.arg0 = below(2000);
          span = 32;
          break;
        case 13:
          req.op = trio::XtxnOp::kFetchAdd32;
          span = 4;
          break;
        case 14: {
          static constexpr trio::XtxnOp kFetch64[] = {
              trio::XtxnOp::kFetchAnd64, trio::XtxnOp::kFetchOr64,
              trio::XtxnOp::kFetchXor64, trio::XtxnOp::kFetchClear64,
              trio::XtxnOp::kFetchSwap64};
          req.op = kFetch64[below(5)];
          break;
        }
        case 15:
          req.op = trio::XtxnOp::kMaskedWrite64;
          break;
        case 16:
        case 17:
          req.op = kind == 16 ? trio::XtxnOp::kAddVec32
                              : trio::XtxnOp::kMinVec32;
          // Mostly whole words, sometimes with a ragged tail.
          req.data = random_bytes(4 * below(kMaxLen / 4) + below(2) * below(4));
          span = req.data.size();
          break;
        default:
          req.op = trio::XtxnOp::kVoteVec32;
          // Few distinct values, so candidates repeat and counts move.
          req.data.resize(4 * below(kMaxLen / 8));
          for (auto& b : req.data) b = static_cast<std::uint8_t>(below(2));
          span = 2 * req.data.size();
          break;
      }
      if (!in_range(span)) {
        EXPECT_THROW(sms.issue(req, posted), std::out_of_range);
        continue;
      }
      const auto now_ns = std::uint64_t(sim.now().ns());
      switch (req.op) {
        case trio::XtxnOp::kRead:
          want.data.resize(req.len);
          for (std::uint64_t i = 0; i < req.len; ++i) {
            want.data[i] = model.get(addr + i);
          }
          break;
        case trio::XtxnOp::kWrite:
          for (std::size_t i = 0; i < req.data.size(); ++i) {
            model.put(addr + i, req.data[i], 1);
          }
          break;
        case trio::XtxnOp::kCounterInc:
          model.put(addr, model.word(addr, 8) + 1, 8);
          model.put(addr + 8, model.word(addr + 8, 8) + req.arg0, 8);
          break;
        case trio::XtxnOp::kPolicerCheck: {
          const std::uint64_t rate = model.word(addr, 8);
          const std::uint64_t burst = model.word(addr + 8, 8);
          std::uint64_t tokens = model.word(addr + 16, 8);
          const std::uint64_t last = model.word(addr + 24, 8);
          if (now_ns > last) {
            const double refill = double(now_ns - last) * 1e-9 * double(rate);
            tokens = std::min(burst, tokens + std::uint64_t(refill));
            model.put(addr + 24, now_ns, 8);
          }
          want.value = tokens >= req.arg0 ? 1 : 0;
          if (want.value) tokens -= req.arg0;
          model.put(addr + 16, tokens, 8);
          break;
        }
        case trio::XtxnOp::kFetchAdd32:
          want.value = model.word(addr, 4);
          model.put(addr, want.value + req.arg0, 4);
          break;
        case trio::XtxnOp::kMaskedWrite64: {
          const std::uint64_t old = model.word(addr, 8);
          model.put(addr, (old & ~req.arg1) | (req.arg0 & req.arg1), 8);
          break;
        }
        case trio::XtxnOp::kAddVec32:
        case trio::XtxnOp::kMinVec32:
          for (std::size_t i = 0; i + 4 <= req.data.size(); i += 4) {
            const auto old = std::uint32_t(model.word(addr + i, 4));
            std::uint32_t in = 0;
            for (int b = 3; b >= 0; --b) in = in << 8 | req.data[i + b];
            model.put(addr + i,
                      req.op == trio::XtxnOp::kAddVec32 ? old + in
                                                        : std::min(old, in),
                      4);
          }
          break;
        case trio::XtxnOp::kVoteVec32:
          for (std::size_t i = 0; i < req.data.size(); i += 4) {
            const std::uint64_t c = addr + req.data.size() + i;
            const std::uint32_t in = req.data[i] | req.data[i + 1] << 8 |
                                     req.data[i + 2] << 16 |
                                     std::uint32_t(req.data[i + 3]) << 24;
            const auto count = std::uint32_t(model.word(c, 4));
            if (count == 0) {
              model.put(addr + i, in, 4);
              model.put(c, 1, 4);
            } else {
              model.put(c, model.word(addr + i, 4) == in ? count + 1
                                                         : count - 1,
                        4);
            }
          }
          break;
        default: {  // Fetch*64
          const std::uint64_t old = model.word(addr, 8);
          want.value = old;
          std::uint64_t next = req.arg0;
          if (req.op == trio::XtxnOp::kFetchAnd64) next = old & req.arg0;
          if (req.op == trio::XtxnOp::kFetchOr64) next = old | req.arg0;
          if (req.op == trio::XtxnOp::kFetchXor64) next = old ^ req.arg0;
          if (req.op == trio::XtxnOp::kFetchClear64) next = old & ~req.arg0;
          model.put(addr, next, 8);
          break;
        }
      }
      const trio::XtxnReply got = issue_sync(req);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.data, want.data);
    }
  }

  // Sweep every byte of every window, with the margins ops near its
  // edges reach, and of the policer records.
  std::vector<Window> swept = {{policers, 32u * kPolicers}};
  for (const Window& w : windows) {
    const std::uint64_t lo = w.base < 1024 ? 0 : w.base - 1024;
    swept.push_back({lo, std::min(end, w.base + w.len + 1024) - lo});
  }
  for (const Window& w : swept) {
    const auto got = sms.peek_bytes(w.base, w.len);
    for (std::uint64_t i = 0; i < w.len; ++i) {
      ASSERT_EQ(got[i], model.get(w.base + i)) << "addr " << w.base + i;
    }
  }
}

TEST_F(SmsTest, DramCacheMatchesADirectMappedReference) {
  // Slab-like traffic: 4 KiB buffers, adds in 64-byte slices, some
  // buffers a cache size apart (so they share sets), revisited over
  // several rounds.
  const std::uint64_t sets = cal.dram_cache_bytes / cal.bank_interleave;
  std::map<std::uint64_t, std::uint64_t> tags;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<std::uint64_t> slabs;
  for (int s = 0; s < 6; ++s) {
    slabs.push_back(sms.dram_base() + 64 + (std::uint64_t(s) << 22));
    slabs.push_back(slabs.back() + cal.dram_cache_bytes);
  }
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.data.assign(64, 1);
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t slab = slabs[rng() % slabs.size()];
    for (std::uint64_t off = 0; off < 4096; off += 64) {
      add.addr = slab + off;
      sms.issue(add, posted);
      const std::uint64_t line = add.addr / cal.bank_interleave;
      auto [it, fresh] = tags.try_emplace(line % sets, line);
      if (!fresh && it->second == line) {
        ++hits;
      } else {
        it->second = line;
        ++misses;
      }
    }
  }
  EXPECT_EQ(sms.dram_cache_hits(), hits);
  EXPECT_EQ(sms.dram_cache_misses(), misses);
  EXPECT_GT(hits, 0u);
}

}  // namespace
