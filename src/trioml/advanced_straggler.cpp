#include "trioml/advanced_straggler.hpp"

#include "trio/router.hpp"
#include "trioml/wire_format.hpp"

namespace trioml {

namespace {

std::uint64_t le64(std::span<const std::uint8_t> v, std::size_t off) {
  std::uint64_t x = 0;
  for (int i = 7; i >= 0; --i) {
    x = x << 8 | (off + static_cast<std::size_t>(i) < v.size()
                      ? v[off + static_cast<std::size_t>(i)]
                      : 0);
  }
  return x;
}

}  // namespace

trio::Action StragglerClassifierProgram::step(trio::ThreadContext& ctx) {
  if (!pending_.empty()) return pending_.pop_front();
  return do_step(ctx);
}

trio::Action StragglerClassifierProgram::next_source(
    trio::ThreadContext& ctx) {
  if (next_ >= sources_.size()) {
    state_ = State::kExit;
    return trio::ActExit{2};
  }
  src_ = sources_[next_++];
  trio::ActSyncXtxn rd;
  rd.req.op = trio::XtxnOp::kRead;
  rd.req.addr = app_.straggler_event_counter_addr(job_id_, src_);
  rd.req.len = 8;
  rd.instructions = 3;
  state_ = State::kReadEvents;
  (void)ctx;
  return rd;
}

trio::Action StragglerClassifierProgram::do_step(trio::ThreadContext& ctx) {
  switch (state_) {
    case State::kReadJob: {
      const std::uint64_t addr = app_.job_record_addr(job_id_);
      if (addr == 0) {
        state_ = State::kExit;
        return trio::ActExit{2};
      }
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = addr;
      rd.req.len = JobRecord::kSize;
      rd.instructions = 4;
      state_ = State::kJobLoaded;
      return rd;
    }

    case State::kJobLoaded: {
      job_ = JobRecord::unpack(ctx.reply.data);
      for (int s = 0; s < 64; ++s) {
        if (job_.src_mask[0] >> s & 1) {
          sources_.push_back(static_cast<std::uint8_t>(s));
        }
      }
      return next_source(ctx);
    }

    case State::kReadEvents: {
      events_now_ = le64(ctx.reply.data, 0);
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = app_.classifier_state_addr(job_id_, src_);
      rd.req.len = 16;
      rd.instructions = 2;
      state_ = State::kDecide;
      return rd;
    }

    case State::kDecide: {
      const std::uint64_t last_count = le64(ctx.reply.data, 0);
      std::uint8_t consec = ctx.reply.data.size() > 8 ? ctx.reply.data[8] : 0;
      const bool straggled_this_window = events_now_ > last_count;
      const std::uint8_t prev_consec = consec;
      consec = straggled_this_window
                   ? static_cast<std::uint8_t>(
                         consec < 255 ? consec + 1 : consec)
                   : 0;

      // Persist the window state (posted).
      trio::ActAsyncXtxn wr;
      wr.req.op = trio::XtxnOp::kWrite;
      wr.req.addr = app_.classifier_state_addr(job_id_, src_);
      wr.req.data.resize(16, 0);
      for (int i = 0; i < 8; ++i) {
        wr.req.data[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(events_now_ >> (8 * i));
      }
      wr.req.data[8] = consec;
      wr.instructions = 3;
      pending_.push_back(std::move(wr));

      // Notify on a fresh burst (temporary) and once when the source
      // crosses the permanent threshold (§5: "notify all other workers
      // accordingly").
      std::optional<std::uint8_t> marker;
      if (straggled_this_window && prev_consec == 0) {
        marker = kAgeOpTemporaryStraggler;
      }
      if (consec == config_.permanent_after_windows &&
          prev_consec < config_.permanent_after_windows) {
        marker = kAgeOpPermanentStraggler;
      }
      if (marker) {
        TrioMlHeader hdr;
        hdr.job_id = job_id_;
        hdr.block_id = 0;
        hdr.gen_id = 0;
        hdr.age_op = *marker;
        hdr.src_id = src_;
        hdr.src_cnt = consec;
        const net::MacAddr router_mac{0x02, 0, 0, 0, 0, 0xfe};
        const net::MacAddr mcast_mac{0x01, 0x00, 0x5e, 0, 0, 1};
        net::Buffer frame = build_aggregation_frame(
            router_mac, mcast_mac, net::Ipv4Addr(job_.out_src_addr),
            net::Ipv4Addr(job_.out_dst_addr), kTrioMlUdpPort, hdr, {});
        trio::ActEmitPacket emit;
        emit.pkt = net::Packet::make(std::move(frame));
        emit.nexthop_id = job_.out_nh_addr;
        emit.instructions = 8;
        pending_.push_back(std::move(emit));
        ++app_.stats().straggler_notices_sent;
      }
      // Queue discipline: the next source's synchronous read (or the
      // exit) must be the LAST pending action.
      pending_.push_back(next_source(ctx));
      return pending_.pop_front();
    }

    case State::kExit:
    default:
      return trio::ActExit{1};
  }
}

}  // namespace trioml
