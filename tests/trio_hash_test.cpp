#include <gtest/gtest.h>

#include <unordered_set>

#include "sim/simulator.hpp"
#include "trio/hash.hpp"
#include "trio/hash_table.hpp"

namespace {

TEST(HashFunction, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = trio::mix64(0x123456789abcdefull);
    const std::uint64_t b = trio::mix64(0x123456789abcdefull ^ (1ull << bit));
    total += std::popcount(a ^ b);
  }
  const double avg = total / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashFunction, BytesHashDistinguishesInputs) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> data(16, 0);
    data[0] = static_cast<std::uint8_t>(i);
    data[1] = static_cast<std::uint8_t>(i >> 8);
    seen.insert(trio::hash_bytes(data));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashFunction, SeedChangesResult) {
  std::vector<std::uint8_t> data{1, 2, 3};
  EXPECT_NE(trio::hash_bytes(data, 0), trio::hash_bytes(data, 1));
}

TEST(HashFunction, PairHashOrderSensitive) {
  EXPECT_NE(trio::hash_pair(1, 2), trio::hash_pair(2, 1));
}

class HashTableTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  trio::HwHashTable table{sim, trio::Calibration{}, 256};
};

TEST_F(HashTableTest, InsertLookupDelete) {
  EXPECT_TRUE(table.insert(42, 1000));
  EXPECT_FALSE(table.insert(42, 2000));  // duplicate key rejected
  EXPECT_EQ(table.lookup(42).value(), 1000u);
  EXPECT_FALSE(table.lookup(43).has_value());
  EXPECT_TRUE(table.erase(42));
  EXPECT_FALSE(table.erase(42));
  EXPECT_EQ(table.size(), 0u);
}

TEST_F(HashTableTest, ManyKeysSurviveChaining) {
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_TRUE(table.insert(k, k * 3));
  }
  EXPECT_EQ(table.size(), 10'000u);
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_EQ(table.lookup(k).value(), k * 3);
  }
}

TEST_F(HashTableTest, RefFlagAging) {
  table.insert(1, 100);
  table.insert(2, 200);

  // First scan clears REF (set by insert); nothing aged yet.
  auto aged = table.scan_partition(0, 1);
  EXPECT_TRUE(aged.empty());

  // Key 1 is referenced between scans; key 2 is not.
  table.lookup(1);
  aged = table.scan_partition(0, 1);
  ASSERT_EQ(aged.size(), 1u);
  EXPECT_EQ(aged[0], 2u);

  // With no further references both age on the next pass.
  aged = table.scan_partition(0, 1);
  EXPECT_EQ(aged.size(), 2u);
}

TEST_F(HashTableTest, PartitionedScanCoversEverythingExactlyOnce) {
  for (std::uint64_t k = 0; k < 500; ++k) table.insert(k, k);
  const std::uint32_t parts = 10;
  // First pass: clear all REF flags.
  for (std::uint32_t p = 0; p < parts; ++p) table.scan_partition(p, parts);
  // Second pass: every record must age out in exactly one partition.
  std::unordered_set<std::uint64_t> aged;
  for (std::uint32_t p = 0; p < parts; ++p) {
    for (auto k : table.scan_partition(p, parts, 1000)) {
      EXPECT_TRUE(aged.insert(k).second) << "key reported twice";
    }
  }
  EXPECT_EQ(aged.size(), 500u);
}

TEST_F(HashTableTest, ScanBadPartitionThrows) {
  EXPECT_THROW(table.scan_partition(5, 5), std::invalid_argument);
  EXPECT_THROW(table.scan_partition(0, 0), std::invalid_argument);
}

TEST_F(HashTableTest, XtxnInterface) {
  trio::XtxnRequest ins;
  ins.op = trio::XtxnOp::kHashInsert;
  ins.arg0 = 7;
  ins.arg1 = 700;
  trio::XtxnReply reply;
  table.issue(ins, reply);
  EXPECT_TRUE(reply.ok);

  trio::XtxnRequest lu;
  lu.op = trio::XtxnOp::kHashLookup;
  lu.arg0 = 7;
  table.issue(lu, reply);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.value, 700u);

  trio::XtxnRequest del;
  del.op = trio::XtxnOp::kHashDelete;
  del.arg0 = 7;
  table.issue(del, reply);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.value, 700u) << "delete reply carries the record value";

  table.issue(del, reply);
  EXPECT_FALSE(reply.ok);
}

TEST_F(HashTableTest, XtxnScanReturnsPackedKeys) {
  table.insert(0xabcd, 1);
  table.scan_partition(0, 1);  // clear REF
  trio::XtxnRequest scan;
  scan.op = trio::XtxnOp::kHashScanStep;
  scan.arg0 = std::uint64_t(1) << 32 | 0;  // parts=1, part=0
  scan.arg1 = 16;
  trio::XtxnReply reply;
  table.issue(scan, reply);
  EXPECT_EQ(reply.value, 1u);
  ASSERT_EQ(reply.data.size(), 8u);
  std::uint64_t k = 0;
  for (int i = 7; i >= 0; --i) k = k << 8 | reply.data[static_cast<std::size_t>(i)];
  EXPECT_EQ(k, 0xabcdu);
}

}  // namespace
