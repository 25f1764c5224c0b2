// Trio-ML job and block records (paper Appendix A.1, Figs 17 & 18),
// bit-exact 58-byte layouts stored in the Shared Memory System.
//
// Job records are created by the control plane at job configuration time
// and persist for the job's lifetime; block records are created by the
// datapath when the first packet of a block arrives and deleted when the
// block's result has been generated.
//
// Storage convention: scalar fields are packed MSB-first at the bit
// offsets implied by the struct definitions; the source bitmask fields
// (src_mask_*/rcvd_mask_*) are stored as little-endian u64 words because
// the datapath updates them in place with FetchOr64 RMW operations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/buffer.hpp"

namespace trioml {

/// Fig 17: trio_ml_job_ctx_t, 58 bytes.
struct JobRecord {
  static constexpr std::size_t kSize = 58;

  std::uint16_t block_curr_cnt = 0;   // current number of active blocks
  std::uint16_t block_cnt_max = 0;    // max concurrent blocks (12 bits)
  std::uint16_t block_grad_max = 0;   // max gradients per block (12 bits)
  std::uint8_t block_exp = 0;         // block timeout (ms)
  std::uint32_t block_total_cnt = 0;  // cumulative block count
  std::uint32_t out_src_addr = 0;     // result packet source IP
  std::uint32_t out_dst_addr = 0;     // result packet destination IP
  std::uint32_t out_nh_addr = 0;      // pointer to egress forward chain
  /// Source id stamped on Result packets (stored in the record's 24-bit
  /// padding). 0 for a single-level / top-level aggregator; a first-level
  /// PFE in hierarchical mode uses its own id so the top-level aggregator
  /// sees lower-level PFEs as individual sources (§4).
  std::uint8_t out_src_id = 0;
  std::uint8_t src_cnt = 0;           // number of ML sources in the job
  std::uint64_t src_mask[4] = {0, 0, 0, 0};  // participating sources

  std::vector<std::uint8_t> pack() const;
  /// Packs into the first kSize bytes of `out` (at least kSize long).
  void pack(std::span<std::uint8_t> out) const;
  static JobRecord unpack(std::span<const std::uint8_t> bytes);
};

/// Fig 18: trio_ml_block_ctx_t, 58 bytes.
struct BlockRecord {
  static constexpr std::size_t kSize = 58;
  /// Byte offsets of the fields the datapath RMWs in place.
  static constexpr std::size_t kRcvdCntOff = 25;
  static constexpr std::size_t kRcvdMask0Off = 26;

  std::uint8_t block_exp = 0;          // timeout interval (ms)
  std::uint8_t block_age = 0;          // age of the block
  std::uint64_t block_start_time = 0;  // ns
  std::uint32_t job_ctx_paddr = 0;     // pointer to the job record
  std::uint32_t aggr_paddr = 0;        // pointer to the aggregation buffer
  std::uint16_t grad_cnt = 0;          // gradients in the block (12 bits)
  std::uint8_t rcvd_cnt = 0;           // sources received so far
  std::uint64_t rcvd_mask[4] = {0, 0, 0, 0};

  std::vector<std::uint8_t> pack() const;
  /// Packs into the first kSize bytes of `out` (at least kSize long).
  void pack(std::span<std::uint8_t> out) const;
  static BlockRecord unpack(std::span<const std::uint8_t> bytes);
};

/// A block *slab* is the datapath allocation unit: the 58-byte record
/// rounded up to 64 bytes, with the padding used as implementation
/// scratch for hierarchical aggregation (accumulated contributor count
/// and degraded flag — see aggregator.cpp).
constexpr std::size_t kBlockSlabBytes = 64;
constexpr std::size_t kSrcCntAccumOff = 58;  // u32, FetchAdd32'd
constexpr std::size_t kDegradedFlagOff = 62;  // u8

/// Hash-table keys: (job_id, gen_id, block_id) for blocks; job records use
/// block_id = 0xffffffff ("BLOCK_ID = -1" in Fig 9) and gen 0.
std::uint64_t block_key(std::uint8_t job_id, std::uint16_t gen_id,
                        std::uint32_t block_id);
std::uint64_t job_key(std::uint8_t job_id);
/// True when a hash key addresses a job record rather than a block.
bool is_job_key(std::uint64_t key);
/// Decomposes a block key.
void split_key(std::uint64_t key, std::uint8_t& job_id, std::uint16_t& gen_id,
               std::uint32_t& block_id);

}  // namespace trioml
