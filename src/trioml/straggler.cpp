#include "trioml/straggler.hpp"

namespace trioml {

trio::Action StragglerScanProgram::step(trio::ThreadContext& ctx) {
  if (!pending_.empty()) return pending_.pop_front();
  return do_step(ctx);
}

trio::Action StragglerScanProgram::do_step(trio::ThreadContext& ctx) {
  switch (state_) {
    case State::kScan: {
      trio::ActSyncXtxn scan;
      scan.req.op = trio::XtxnOp::kHashScanStep;
      scan.req.arg0 = std::uint64_t(partitions_) << 32 | partition_;
      scan.req.arg1 = 64;  // bound the per-thread report
      scan.instructions = 4;
      state_ = State::kNextAged;
      return scan;
    }

    case State::kNextAged: {
      if (aged_.empty() && next_ == 0 && !ctx.reply.data.empty()) {
        // First entry after the scan reply: decode the aged keys and skip
        // job records (block_id == -1 entries are referenced rarely by
        // design and are not aggregation state).
        for (std::size_t off = 0; off + 8 <= ctx.reply.data.size(); off += 8) {
          std::uint64_t k = 0;
          for (int i = 7; i >= 0; --i) {
            k = k << 8 | ctx.reply.data[off + static_cast<std::size_t>(i)];
          }
          // Skip job records, and skip foreign keys entirely: with key
          // partitions off, co-tenant apps on this PFE (netrpc's hot-key
          // cache) share the hash table, and their aged keys must not be
          // claimed as if they were aggregation blocks.
          if (!is_job_key(k) &&
              app_.has_job(static_cast<std::uint8_t>(k >> 48))) {
            aged_.push_back(k);
          }
        }
      }
      if (next_ >= aged_.size()) {
        state_ = State::kExit;
        return trio::ActExit{2};
      }
      key_ = aged_[next_++];
      // Claim the aged block. A completing packet thread may race us; the
      // hash delete decides ownership atomically.
      trio::ActSyncXtxn del;
      del.req.op = trio::XtxnOp::kHashDelete;
      del.req.arg0 = key_;
      del.instructions = 4;
      state_ = State::kClaim;
      return del;
    }

    case State::kClaim: {
      if (!ctx.reply.ok) {
        state_ = State::kNextAged;
        return do_step(ctx);
      }
      // The delete reply carries the deleted record's value: the block's
      // record address.
      record_addr_ = ctx.reply.value;
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = record_addr_;
      rd.req.len = kBlockSlabBytes;
      rd.instructions = 3;
      state_ = State::kReadRecord;
      return rd;
    }

    case State::kReadRecord: {
      record_ = BlockRecord::unpack(ctx.reply.data);
      accum_src_cnt_ = ctx.reply.data[kSrcCntAccumOff];
      if (accum_src_cnt_ == 0) {
        // Nothing was ever aggregated (cannot normally happen: the
        // creator contributes before the record can age). Recycle.
        app_.free_slab(record_addr_);
        state_ = State::kNextAged;
        return do_step(ctx);
      }
      trio::ActSyncXtxn rd;
      rd.req.op = trio::XtxnOp::kRead;
      rd.req.addr = record_.job_ctx_paddr;
      rd.req.len = JobRecord::kSize;
      rd.instructions = 2;
      state_ = State::kReadJob;
      return rd;
    }

    case State::kReadJob: {
      const JobRecord job = JobRecord::unpack(ctx.reply.data);
      ++app_.stats().blocks_aged;
      // §5 advanced mitigation: charge each missing source's straggler
      // event counter so the slow classifier threads can profile it.
      std::uint8_t job_id;
      std::uint16_t gen_id;
      std::uint32_t block_id;
      split_key(key_, job_id, gen_id, block_id);
      {
        // Release the job's active-block slot (the aged block's memory
        // is being reclaimed).
        trio::ActAsyncXtxn dec;
        dec.req.op = trio::XtxnOp::kAddVec32;
        dec.req.addr = app_.job_active_counter_addr(job_id);
        dec.req.data = {0xff, 0xff, 0xff, 0xff};
        dec.instructions = 1;
        pending_.push_back(std::move(dec));
      }
      if (app_.profiling_enabled(job_id)) {
        const std::uint64_t missing =
            job.src_mask[0] & ~record_.rcvd_mask[0];
        for (int s = 0; s < 64; ++s) {
          if (missing >> s & 1) {
            trio::ActAsyncXtxn inc;
            inc.req.op = trio::XtxnOp::kCounterInc;
            inc.req.addr = app_.straggler_event_counter_addr(
                job_id, static_cast<std::uint8_t>(s));
            inc.req.arg0 = record_.grad_cnt;
            inc.instructions = 1;
            pending_.push_back(std::move(inc));
            ++app_.stats().straggler_events;
          }
        }
      }
      ResultBuilder::Inputs in;
      in.key = key_;
      in.record_addr = record_addr_;
      in.record = record_;
      in.job = job;
      in.src_cnt = accum_src_cnt_;
      in.degraded = true;  // partial aggregation (§5)
      in.age_op = 1;
      builder_.emplace(app_, std::move(in));
      state_ = State::kResult;
      return do_step(ctx);
    }

    case State::kResult: {
      auto action = builder_->step(ctx);
      if (action) return std::move(*action);
      builder_.reset();
      state_ = State::kNextAged;
      return do_step(ctx);
    }

    case State::kExit:
      return trio::ActExit{1};
  }
  return trio::ActExit{1};
}

}  // namespace trioml
