#include "trioml/result_builder.hpp"

#include "trio/router.hpp"

namespace trioml {

ResultBuilder::ResultBuilder(TrioMlApp& app, Inputs inputs)
    : app_(app), in_(std::move(inputs)) {
  grad_bytes_ = std::size_t(in_.record.grad_cnt) * 4;
  // Pre-build the result packet: Eth/IP/UDP and the Trio-ML header are
  // reconstructed from the block and job records (paper §4 "Result
  // packet"). The gradients stay zero until they are copied in chunk by
  // chunk as they are read back from the aggregation buffer.
  std::uint8_t job_id;
  std::uint16_t gen_id;
  std::uint32_t block_id;
  split_key(in_.key, job_id, gen_id, block_id);

  TrioMlHeader hdr;
  hdr.job_id = job_id;
  hdr.block_id = block_id;
  hdr.gen_id = gen_id;
  hdr.grad_cnt = in_.record.grad_cnt;
  hdr.src_id = in_.job.out_src_id;  // the aggregator's own source id
  hdr.src_cnt = in_.src_cnt;
  hdr.degraded = in_.degraded;
  hdr.age_op = in_.age_op;
  hdr.final_block = in_.final_block;

  const net::MacAddr router_mac{0x02, 0x00, 0x00, 0x00, 0x00, 0xfe};
  const net::MacAddr mcast_mac{0x01, 0x00, 0x5e, 0x00, 0x00, 0x01};
  frame_ = net::build_udp_frame(
      router_mac, mcast_mac, net::Ipv4Addr(in_.job.out_src_addr),
      net::Ipv4Addr(in_.job.out_dst_addr), kTrioMlUdpPort, kTrioMlUdpPort,
      TrioMlHeader::kSize + grad_bytes_);
  hdr.write(frame_, kTrioMlHdrOff);
}

std::optional<trio::Action> ResultBuilder::step(trio::ThreadContext& ctx) {
  switch (state_) {
    case State::kReadChunk: {
      if (chunk_outstanding_) {
        // A chunk of aggregated gradients arrived: copy into the frame
        // and write it to the packet buffer (PMEM) as the new tail.
        frame_.write(kGradOff + offset_, ctx.reply.data);
        trio::ActAsyncXtxn pmem;
        pmem.req.op = trio::XtxnOp::kPmemWrite;
        pmem.req.len = static_cast<std::uint32_t>(ctx.reply.data.size());
        pmem.instructions = 4;
        offset_ += ctx.reply.data.size();
        chunk_outstanding_ = false;
        return pmem;
      }
      if (offset_ >= grad_bytes_) {
        state_ = State::kEmit;
        return step(ctx);
      }
      const std::size_t len =
          std::min<std::size_t>(256, grad_bytes_ - offset_);
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = in_.record.aggr_paddr + offset_;
      rd.req.len = static_cast<std::uint32_t>(len);
      // The copy loop is cheap — "it uses less processing time, because it
      // is executed once per block" (§6.3).
      rd.instructions = 8;
      chunk_outstanding_ = true;
      return rd;
    }
    case State::kEmit: {
      // Free the slab (control-plane bookkeeping; the hash record was
      // deleted by the caller before result generation began).
      app_.free_slab(in_.record_addr);

      ++app_.stats().results_emitted;
      app_.stats().gradients_aggregated += in_.record.grad_cnt;

      trio::ActEmitPacket emit;
      emit.pkt = net::Packet::make(std::move(frame_));
      emit.nexthop_id = in_.job.out_nh_addr;
      emit.instructions = 10;
      state_ = State::kDone;
      return emit;
    }
    case State::kDone:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace trioml
