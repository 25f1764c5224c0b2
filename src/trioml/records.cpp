#include "trioml/records.hpp"

#include <algorithm>
#include <stdexcept>

#include "microcode/bitfield.hpp"

namespace trioml {

namespace {

void put_le64(std::span<std::uint8_t> v, std::size_t off, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    v[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(x >> (8 * i));
  }
}

std::uint64_t get_le64(std::span<const std::uint8_t> v, std::size_t off) {
  std::uint64_t x = 0;
  for (int i = 7; i >= 0; --i) {
    x = x << 8 | v[off + static_cast<std::size_t>(i)];
  }
  return x;
}

/// The first `size` bytes of `out`, zeroed; throws when `out` is shorter.
std::span<std::uint8_t> record_bytes(std::span<std::uint8_t> out,
                                     std::size_t size, const char* what) {
  if (out.size() < size) throw std::invalid_argument(what);
  out = out.first(size);
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  return out;
}

}  // namespace

std::vector<std::uint8_t> JobRecord::pack() const {
  std::vector<std::uint8_t> out(kSize);
  pack(out);
  return out;
}

void JobRecord::pack(std::span<std::uint8_t> out) const {
  const auto buf = record_bytes(out, kSize, "JobRecord::pack: short buffer");
  using microcode::write_bits;
  write_bits(buf, 0, 16, block_curr_cnt);
  write_bits(buf, 16, 12, block_cnt_max);
  write_bits(buf, 28, 12, block_grad_max);
  write_bits(buf, 40, 8, block_exp);
  write_bits(buf, 48, 32, block_total_cnt);
  write_bits(buf, 80, 32, out_src_addr);
  write_bits(buf, 112, 32, out_dst_addr);
  write_bits(buf, 144, 32, out_nh_addr);
  write_bits(buf, 176, 8, out_src_id);  // stored in the 24-bit padding
  write_bits(buf, 200, 8, src_cnt);
  for (int i = 0; i < 4; ++i) {
    put_le64(buf, 26 + static_cast<std::size_t>(i) * 8, src_mask[i]);
  }
}

JobRecord JobRecord::unpack(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSize) {
    throw std::invalid_argument("JobRecord::unpack: short buffer");
  }
  const auto buf = bytes.first(kSize);
  using microcode::read_bits;
  JobRecord r;
  r.block_curr_cnt = static_cast<std::uint16_t>(read_bits(buf, 0, 16));
  r.block_cnt_max = static_cast<std::uint16_t>(read_bits(buf, 16, 12));
  r.block_grad_max = static_cast<std::uint16_t>(read_bits(buf, 28, 12));
  r.block_exp = static_cast<std::uint8_t>(read_bits(buf, 40, 8));
  r.block_total_cnt = static_cast<std::uint32_t>(read_bits(buf, 48, 32));
  r.out_src_addr = static_cast<std::uint32_t>(read_bits(buf, 80, 32));
  r.out_dst_addr = static_cast<std::uint32_t>(read_bits(buf, 112, 32));
  r.out_nh_addr = static_cast<std::uint32_t>(read_bits(buf, 144, 32));
  r.out_src_id = static_cast<std::uint8_t>(read_bits(buf, 176, 8));
  r.src_cnt = static_cast<std::uint8_t>(read_bits(buf, 200, 8));
  for (int i = 0; i < 4; ++i) {
    r.src_mask[i] = get_le64(buf, 26 + static_cast<std::size_t>(i) * 8);
  }
  return r;
}

std::vector<std::uint8_t> BlockRecord::pack() const {
  std::vector<std::uint8_t> out(kSize);
  pack(out);
  return out;
}

void BlockRecord::pack(std::span<std::uint8_t> out) const {
  const auto buf = record_bytes(out, kSize, "BlockRecord::pack: short buffer");
  using microcode::write_bits;
  write_bits(buf, 0, 8, block_exp);
  write_bits(buf, 8, 8, block_age);
  write_bits(buf, 16, 64, block_start_time);
  write_bits(buf, 80, 32, job_ctx_paddr);
  write_bits(buf, 112, 32, aggr_paddr);
  // 20 pad bits at 144.
  write_bits(buf, 164, 12, grad_cnt);
  // 24 pad bits at 176.
  write_bits(buf, 200, 8, rcvd_cnt);
  for (int i = 0; i < 4; ++i) {
    put_le64(buf, kRcvdMask0Off + static_cast<std::size_t>(i) * 8,
             rcvd_mask[i]);
  }
}

BlockRecord BlockRecord::unpack(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSize) {
    throw std::invalid_argument("BlockRecord::unpack: short buffer");
  }
  const auto buf = bytes.first(kSize);
  using microcode::read_bits;
  BlockRecord r;
  r.block_exp = static_cast<std::uint8_t>(read_bits(buf, 0, 8));
  r.block_age = static_cast<std::uint8_t>(read_bits(buf, 8, 8));
  r.block_start_time = read_bits(buf, 16, 64);
  r.job_ctx_paddr = static_cast<std::uint32_t>(read_bits(buf, 80, 32));
  r.aggr_paddr = static_cast<std::uint32_t>(read_bits(buf, 112, 32));
  r.grad_cnt = static_cast<std::uint16_t>(read_bits(buf, 164, 12));
  r.rcvd_cnt = static_cast<std::uint8_t>(read_bits(buf, 200, 8));
  for (int i = 0; i < 4; ++i) {
    r.rcvd_mask[i] =
        get_le64(buf, kRcvdMask0Off + static_cast<std::size_t>(i) * 8);
  }
  return r;
}

std::uint64_t block_key(std::uint8_t job_id, std::uint16_t gen_id,
                        std::uint32_t block_id) {
  return std::uint64_t(job_id) << 48 | std::uint64_t(gen_id) << 32 | block_id;
}

std::uint64_t job_key(std::uint8_t job_id) {
  return std::uint64_t(job_id) << 48 | 0xffffffffull;
}

bool is_job_key(std::uint64_t key) {
  return (key & 0xffffffffull) == 0xffffffffull;
}

void split_key(std::uint64_t key, std::uint8_t& job_id, std::uint16_t& gen_id,
               std::uint32_t& block_id) {
  job_id = static_cast<std::uint8_t>(key >> 48);
  gen_id = static_cast<std::uint16_t>(key >> 32);
  block_id = static_cast<std::uint32_t>(key);
}

}  // namespace trioml
