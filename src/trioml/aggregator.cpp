#include "trioml/aggregator.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "trio/router.hpp"

namespace trioml {

namespace {

std::uint32_t le32(std::span<const std::uint8_t> v, std::size_t off) {
  return std::uint32_t(v[off]) | std::uint32_t(v[off + 1]) << 8 |
         std::uint32_t(v[off + 2]) << 16 | std::uint32_t(v[off + 3]) << 24;
}

}  // namespace

bool is_aggregation_frame(const net::Buffer& frame) {
  if (frame.size() < kGradOff) return false;
  const auto eth = net::EthernetHeader::parse(frame, 0);
  if (eth.ether_type != net::EthernetHeader::kEtherTypeIpv4) return false;
  const auto ip = net::Ipv4Header::parse(frame, net::UdpFrameLayout::kIpOff);
  if (ip.protocol != net::Ipv4Header::kProtoUdp || ip.ihl != 5) return false;
  const auto udp = net::UdpHeader::parse(frame, net::UdpFrameLayout::kUdpOff);
  return udp.dst_port == kTrioMlUdpPort;
}

trio::ProgramFactory make_aggregation_factory(TrioMlApp& app) {
  return [&app](const net::Packet& pkt) -> trio::ProgramPtr {
    if (is_aggregation_frame(pkt.frame())) {
      const auto& addr = app.aggregation_address();
      if (!addr || net::Ipv4Header::parse(pkt.frame(),
                                          net::UdpFrameLayout::kIpOff)
                           .dst == *addr) {
        return std::make_unique<AggregationProgram>(app);
      }
      // Aggregation-port traffic addressed elsewhere (e.g. an upstream
      // aggregator's multicast result in transit) is plain forwarding.
    }
    return app.pfe().router().make_forwarding_program();
  };
}

// Queue discipline: synchronous actions are only ever queued as the LAST
// element of pending_, so when a sync reply re-enters step() the queue is
// empty and do_step() handles the reply for the current state.

trio::Action AggregationProgram::step(trio::ThreadContext& ctx) {
  if (!pending_.empty()) return pending_.pop_front();
  return do_step(ctx);
}

void AggregationProgram::queue_active_decrement() {
  // Release the job's active-block slot: a posted += -1 (mod 2^32).
  auto& dec = pending_.emplace_back().emplace<trio::ActAsyncXtxn>();
  dec.req.op = trio::XtxnOp::kAddVec32;
  dec.req.addr = app_.job_active_counter_addr(hdr_.job_id);
  dec.req.data = {0xff, 0xff, 0xff, 0xff};
  dec.instructions = 1;
}

trio::Action AggregationProgram::finish(trio::ThreadContext& ctx,
                                        std::uint32_t instructions) {
  // "Time each aggregation packet spends in Trio" (§6.3): arrival at the
  // PFE to thread completion.
  const sim::Time now = app_.pfe().router().simulator().now();
  const sim::Duration in_trio = now - ctx.packet->arrival_time();
  app_.stats().packet_latency_us.add(in_trio.us());
  app_.packet_latency_hist().record(in_trio.ns());
  state_ = State::kExit;
  return trio::ActExit{instructions};
}

void AggregationProgram::queue_add_slices(std::size_t grad_byte_off,
                                          std::span<const std::uint8_t> carry,
                                          std::span<const std::uint8_t> data,
                                          std::uint32_t instructions) {
  // The RMW engines sum 32-bit gradients into the aggregation buffer; the
  // adds are sliced at the 64-byte bank-interleave granule so consecutive
  // slices land on different engines and proceed in parallel (§2.3).
  const std::uint64_t base = record_.aggr_paddr + grad_byte_off;
  const std::size_t total = carry.size() + data.size();
  std::size_t off = 0;
  bool first = true;
  while (off < total) {
    const std::uint64_t addr = base + off;
    const std::size_t to_boundary = 64 - static_cast<std::size_t>(addr % 64);
    const std::size_t len = std::min(to_boundary, total - off);
    auto& add = pending_.emplace_back().emplace<trio::ActAsyncXtxn>();
    add.req.op = trio::XtxnOp::kAddVec32;
    add.req.addr = addr;
    // Bytes [off, off + len) of the carry followed by the data.
    const std::size_t from_carry =
        off < carry.size() ? std::min(len, carry.size() - off) : 0;
    if (from_carry > 0) add.req.data.assign(carry.subspan(off, from_carry));
    if (len > from_carry) {
      add.req.data.append(
          data.subspan(off + from_carry - carry.size(), len - from_carry));
    }
    add.instructions = first ? instructions : 1;
    first = false;
    off += len;
  }
}

void AggregationProgram::append_carry(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > carry_.size() - carry_len_) {
    throw std::logic_error("AggregationProgram: carry exceeds a gradient");
  }
  std::memcpy(carry_.data() + carry_len_, bytes.data(), bytes.size());
  carry_len_ += bytes.size();
}

trio::Action AggregationProgram::claim_source() {
  // Claim this source BEFORE aggregating. The rcvd_mask bit is only set
  // after the adds drain (completion depends on that order), so two
  // threads for the same source — a retransmission racing the original,
  // e.g. released together by a router-stall replay — can both pass the
  // snapshot check above and double the contribution. The slab's unused
  // rcvd_mask_1 word (jobs have <= 64 sources) is the claim mask:
  // exactly one FetchOr64 per source sees its bit clear.
  trio::ActSyncXtxn claim;
  claim.req.op = trio::XtxnOp::kFetchOr64;
  claim.req.addr = record_addr_ + BlockRecord::kRcvdMask0Off + 8;
  claim.req.arg0 = 1ull << hdr_.src_id;
  claim.instructions = 2;
  state_ = State::kClaimReply;
  return claim;
}

trio::Action AggregationProgram::begin_aggregation(trio::ThreadContext& ctx) {
  grad_bytes_ = std::size_t(hdr_.grad_cnt) * 4;
  const std::size_t head_size = ctx.packet->head_size();
  const std::size_t head_avail =
      head_size > kGradOff ? std::min(grad_bytes_, head_size - kGradOff) : 0;
  // Gradients may straddle the head/tail split (the head holds 192-54 =
  // 138 gradient bytes — not 32-bit aligned). Aggregate whole gradients
  // from the head; the straddling bytes are carried into the first tail
  // chunk.
  const std::size_t head_aligned = head_avail & ~std::size_t{3};
  stream_pos_ = head_aligned;
  tail_off_ = 0;
  tail_total_ = grad_bytes_ - head_avail;
  carry_len_ = 0;
  append_carry(
      ctx.lmem.view(kGradOff + head_aligned, head_avail - head_aligned));

  if (head_aligned > 0) {
    // Phase one: gradients already in LMEM with the head (Fig 10).
    const auto head_grads = ctx.lmem.view(kGradOff, head_aligned);
    const auto instr = static_cast<std::uint32_t>(
        head_aligned / 4 * 12 / 10 + 4);  // ~1.2 instr/gradient
    queue_add_slices(0, {}, head_grads, instr);
  }
  return next_tail_action(ctx);
}

trio::Action AggregationProgram::next_tail_action(trio::ThreadContext&) {
  if (!pending_.empty()) {
    state_ = State::kAggregate;
    return pending_.pop_front();
  }
  if (tail_off_ < tail_total_) {
    // Phase two: read the next 64-byte chunk of the tail into LMEM.
    const auto& cal = app_.pfe().cal();
    const std::size_t len =
        std::min(cal.tail_chunk_bytes, tail_total_ - tail_off_);
    trio::ActSyncXtxn rd;
    rd.req.op = trio::XtxnOp::kTailRead;
    rd.req.addr = tail_off_;  // gradients are the last bytes of the frame
    rd.req.len = static_cast<std::uint32_t>(len);
    rd.instructions = 2;
    state_ = State::kTailChunk;
    return rd;
  }
  // All gradient adds issued: wait for the RMW engines to drain before
  // accounting this source (result correctness depends on this order).
  state_ = State::kJoined;
  return trio::ActJoinAsync{2};
}

trio::Action AggregationProgram::do_step(trio::ThreadContext& ctx) {
  switch (state_) {
    case State::kParse: {
      hdr_ = TrioMlHeader::parse(ctx.lmem, kTrioMlHdrOff);
      if (hdr_.age_op >= 0xE) {
        // Classifier notification packets share the port but carry no
        // gradients; they are not aggregation traffic.
        ++app_.stats().notices_ignored;
        return finish(ctx, 2);
      }
      key_ = block_key(hdr_.job_id, hdr_.gen_id, hdr_.block_id);
      ++app_.stats().packets;
      if (hdr_.src_id >= 64) {
        // No job has such a source (configure_job): a damaged frame.
        ++app_.stats().dropped_no_job;
        return finish(ctx, 2);
      }
      trio::ActSyncXtxn lu;
      lu.req.op = trio::XtxnOp::kHashLookup;
      lu.req.arg0 = key_;
      lu.instructions = 12;  // parse + key formation
      state_ = State::kBlockLookup;
      return lu;
    }

    case State::kRetryLookup: {
      if (ctx.reply.ok) {
        record_addr_ = ctx.reply.value;
        trio::ActSyncXtxn rd;
        rd.req.op = trio::XtxnOp::kRead;
        rd.req.addr = record_addr_;
        rd.req.len = kBlockSlabBytes;
        rd.instructions = 3;
        state_ = State::kReadBlock;
        return rd;
      }
      return finish(ctx, 2);  // truly no memory for a new block
    }

    case State::kBlockLookup: {
      if (ctx.reply.ok) {
        record_addr_ = ctx.reply.value;
        trio::ActSyncXtxn rd;
        rd.req.op = trio::XtxnOp::kRead;
        rd.req.addr = record_addr_;
        rd.req.len = kBlockSlabBytes;
        rd.instructions = 3;
        state_ = State::kReadBlock;
        return rd;
      }
      trio::ActSyncXtxn lu;
      lu.req.op = trio::XtxnOp::kHashLookup;
      lu.req.arg0 = job_key(hdr_.job_id);
      lu.instructions = 4;
      state_ = State::kJobLookup;
      return lu;
    }

    case State::kReadBlock: {
      record_ = BlockRecord::unpack(ctx.reply.data);
      job_addr_ = record_.job_ctx_paddr;
      job_src_cnt_ = ctx.reply.data[63];
      if ((record_.rcvd_mask[0] >> hdr_.src_id & 1) != 0) {
        // Retransmission: this source already contributed (§4 "recognize
        // retransmissions by the servers").
        ++app_.stats().duplicates;
        return finish(ctx, 4);
      }
      return claim_source();
    }

    case State::kJobLookup: {
      if (!ctx.reply.ok) {
        ++app_.stats().dropped_no_job;
        return finish(ctx, 2);
      }
      job_addr_ = ctx.reply.value;
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = job_addr_;
      rd.req.len = JobRecord::kSize;
      rd.instructions = 3;
      state_ = State::kReadJob;
      return rd;
    }

    case State::kReadJob: {
      job_ = JobRecord::unpack(ctx.reply.data);
      have_job_ = true;
      job_src_cnt_ = job_.src_cnt;
      if (hdr_.grad_cnt > job_.block_grad_max) {
        ++app_.stats().dropped_no_job;
        return finish(ctx, 2);
      }
      // Enforce the job's concurrent-block cap before claiming memory
      // (Fig 17 block_cnt_max): atomically take an active-block slot.
      trio::ActSyncXtxn take;
      take.req.op = trio::XtxnOp::kFetchAdd32;
      take.req.addr = app_.job_active_counter_addr(hdr_.job_id);
      take.req.arg0 = 1;
      take.instructions = 2;
      state_ = State::kCapCheck;
      return take;
    }

    case State::kCapCheck: {
      if (ctx.reply.value >= job_.block_cnt_max) {
        // Over the cap: release the slot and drop (the sender's
        // retransmission recovers once blocks complete or age out).
        queue_active_decrement();
        ++app_.stats().blocks_capped;
        state_ = State::kFinish;
        return pending_.pop_front();
      }
      auto slab = app_.alloc_slab();
      if (!slab) {
        // Out of slabs — most commonly because a concurrent creator of
        // THIS block took the last one. Give back the active slot and
        // retry the lookup once; if the block genuinely doesn't exist,
        // drop (the sender's retransmission recovers).
        queue_active_decrement();
        if (!retried_create_) {
          retried_create_ = true;
          auto& lu = pending_.emplace_back().emplace<trio::ActSyncXtxn>();
          lu.req.op = trio::XtxnOp::kHashLookup;
          lu.req.arg0 = key_;
          lu.instructions = 2;
          state_ = State::kRetryLookup;
          return pending_.pop_front();
        }
        state_ = State::kFinish;
        return pending_.pop_front();
      }
      record_addr_ = slab->record_addr;

      record_ = BlockRecord{};
      record_.block_exp = job_.block_exp;
      record_.block_start_time = static_cast<std::uint64_t>(
          app_.pfe().router().simulator().now().ns());
      record_.job_ctx_paddr = static_cast<std::uint32_t>(job_addr_);
      record_.aggr_paddr = static_cast<std::uint32_t>(slab->buffer_addr);
      record_.grad_cnt = hdr_.grad_cnt & 0xfff;

      auto& wr = pending_.emplace_back().emplace<trio::ActAsyncXtxn>();
      wr.req.op = trio::XtxnOp::kWrite;
      wr.req.addr = record_addr_;
      wr.req.data.assign(kBlockSlabBytes, 0);
      record_.pack(wr.req.data);
      wr.req.data[63] = job_.src_cnt;  // scratch: expected contributor count
      wr.instructions = 12;

      auto& ins = pending_.emplace_back().emplace<trio::ActSyncXtxn>();
      ins.req.op = trio::XtxnOp::kHashInsert;
      ins.req.arg0 = key_;
      ins.req.arg1 = record_addr_;
      ins.instructions = 4;
      state_ = State::kInsert;
      return pending_.pop_front();
    }

    case State::kInsert: {
      if (!ctx.reply.ok) {
        // Lost the creation race: another thread inserted this block
        // concurrently. Release our slab and active-block slot, then
        // take the found path.
        app_.free_slab(record_addr_);
        queue_active_decrement();
        auto& lu = pending_.emplace_back().emplace<trio::ActSyncXtxn>();
        lu.req.op = trio::XtxnOp::kHashLookup;
        lu.req.arg0 = key_;
        lu.instructions = 2;
        state_ = State::kBlockLookup;
        return pending_.pop_front();
      }
      ++app_.stats().blocks_created;
      return claim_source();
    }

    case State::kClaimReply: {
      if ((ctx.reply.value >> hdr_.src_id & 1) != 0) {
        // Lost the claim race: a concurrent thread for this same source
        // is already aggregating (or finished after our record snapshot).
        ++app_.stats().duplicates;
        return finish(ctx, 2);
      }
      return begin_aggregation(ctx);
    }

    case State::kAggregate:
      return next_tail_action(ctx);

    case State::kTailChunk: {
      // Chunk landed in LMEM: add its gradients into the aggregation
      // buffer (~1.2 run-time instructions per gradient, §6.3). Any
      // bytes carried over from the head/previous chunk are prepended so
      // adds stay 32-bit aligned.
      const std::span<const std::uint8_t> chunk = ctx.reply.data;
      tail_off_ += chunk.size();
      const std::size_t aligned = (carry_len_ + chunk.size()) & ~std::size_t{3};
      std::span<const std::uint8_t> rest = chunk;
      if (aligned > 0) {
        const auto instr =
            static_cast<std::uint32_t>(aligned / 4 * 12 / 10 + 1);
        const std::size_t from_chunk = aligned - carry_len_;
        queue_add_slices(stream_pos_,
                         std::span<const std::uint8_t>(carry_).first(carry_len_),
                         chunk.first(from_chunk), instr);
        stream_pos_ += aligned;
        carry_len_ = 0;
        rest = chunk.subspan(from_chunk);
      }
      append_carry(rest);
      return next_tail_action(ctx);
    }

    case State::kJoined: {
      // All adds drained. Accumulate the contributor count (hierarchical
      // aggregation sums child src_cnts; leaf workers send src_cnt = 1),
      // then take this source's bit in the received mask.
      if (hdr_.degraded) {
        auto& dg = pending_.emplace_back().emplace<trio::ActAsyncXtxn>();
        dg.req.op = trio::XtxnOp::kWrite;
        dg.req.addr = record_addr_ + kDegradedFlagOff;
        dg.req.data = {1};
        dg.instructions = 1;
      }
      auto& add = pending_.emplace_back().emplace<trio::ActSyncXtxn>();
      add.req.op = trio::XtxnOp::kFetchAdd32;
      add.req.addr = record_addr_ + kSrcCntAccumOff;
      add.req.arg0 = hdr_.src_cnt == 0 ? 1 : hdr_.src_cnt;
      add.instructions = 2;
      state_ = State::kAccumReply;
      return pending_.pop_front();
    }

    case State::kAccumReply: {
      trio::ActSyncXtxn orq;
      orq.req.op = trio::XtxnOp::kFetchOr64;
      orq.req.addr = record_addr_ + BlockRecord::kRcvdMask0Off;
      orq.req.arg0 = 1ull << hdr_.src_id;
      orq.instructions = 2;
      state_ = State::kMaskReply;
      return orq;
    }

    case State::kMaskReply: {
      const std::uint64_t new_mask = ctx.reply.value | 1ull << hdr_.src_id;
      const int count = std::popcount(new_mask);
      // Keep the record's rcvd_cnt field current (posted byte write).
      auto& cnt = pending_.emplace_back().emplace<trio::ActAsyncXtxn>();
      cnt.req.op = trio::XtxnOp::kWrite;
      cnt.req.addr = record_addr_ + BlockRecord::kRcvdCntOff;
      cnt.req.data = {static_cast<std::uint8_t>(count)};
      cnt.instructions = 1;

      if (count < job_src_cnt_) {
        state_ = State::kFinish;
        return pending_.pop_front();
      }
      // Complete: atomically claim the block by deleting its hash record
      // (an aging timer thread may race us — exactly one side wins). The
      // value guard keeps a thread whose record was dropped by a fault
      // from deleting a block re-created under the same key.
      auto& del = pending_.emplace_back().emplace<trio::ActSyncXtxn>();
      del.req.op = trio::XtxnOp::kHashDelete;
      del.req.arg0 = key_;
      del.req.arg1 = record_addr_;
      del.instructions = 3;
      state_ = State::kDeleted;
      return pending_.pop_front();
    }

    case State::kDeleted: {
      if (!ctx.reply.ok) {
        // A timer thread aged the block concurrently and owns it now.
        return finish(ctx, 2);
      }
      ++app_.stats().blocks_completed;
      queue_active_decrement();
      const sim::Time now = app_.pfe().router().simulator().now();
      const sim::Duration block_age =
          now - sim::Time(static_cast<std::int64_t>(record_.block_start_time));
      app_.block_latency_hist().record(block_age.ns());
      if (have_job_) {
        state_ = State::kScratch;
      } else {
        state_ = State::kJobForResult;
        trio::ActSyncXtxn rd;
        rd.req.op = trio::XtxnOp::kRead;
        rd.req.addr = job_addr_;
        rd.req.len = JobRecord::kSize;
        rd.instructions = 2;
        return rd;
      }
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = record_addr_ + 56;
      rd.req.len = 8;
      rd.instructions = 2;
      return rd;
    }

    case State::kJobForResult: {
      job_ = JobRecord::unpack(ctx.reply.data);
      have_job_ = true;
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = record_addr_ + 56;
      rd.req.len = 8;
      rd.instructions = 2;
      state_ = State::kScratch;
      return rd;
    }

    case State::kScratch: {
      accum_src_cnt_ = static_cast<std::uint8_t>(le32(ctx.reply.data, 2));
      scratch_degraded_ = ctx.reply.data[6] != 0;

      // Per-job Packet/Byte counter: one block completed, grad bytes.
      auto& ctr = pending_.emplace_back().emplace<trio::ActAsyncXtxn>();
      ctr.req.op = trio::XtxnOp::kCounterInc;
      ctr.req.addr = app_.job_counter_addr(hdr_.job_id);
      ctr.req.arg0 = std::uint64_t(record_.grad_cnt) * 4;
      ctr.instructions = 1;

      ResultBuilder::Inputs in;
      in.key = key_;
      in.record_addr = record_addr_;
      in.record = record_;
      in.job = job_;
      in.src_cnt = accum_src_cnt_;
      in.degraded = scratch_degraded_;
      in.age_op = 0;
      in.final_block = hdr_.final_block;
      builder_.emplace(app_, std::move(in));
      state_ = State::kResult;
      return pending_.pop_front();
    }

    case State::kResult: {
      auto action = builder_->step(ctx);
      if (action) return std::move(*action);
      return finish(ctx, 2);
    }

    case State::kFinish:
      return finish(ctx, 2);

    case State::kExit:
      return trio::ActExit{1};
  }
  return trio::ActExit{1};
}

}  // namespace trioml
