// The Trio-ML aggregation program (paper Fig 10), one thread per packet.
//
// Workflow: parse -> look up the block record by (job_id, gen_id,
// block_id) -> create it on first packet (via the job record) -> aggregate
// gradients from the packet head, then from the tail in 64-byte chunks
// read from the MQSS -> join the outstanding RMW adds -> atomically OR
// this source into the received mask -> if this packet completed the
// block, delete the record and generate the Result packet.
//
// This is the native (C++) rendering of the ~60-instruction Microcode
// program described in §6.3; the instruction counts charged per action
// reproduce its measured cost structure (~1.2 run-time instructions per
// gradient in the tail loop).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "trio/program.hpp"
#include "trioml/app.hpp"
#include "trioml/records.hpp"
#include "trioml/result_builder.hpp"
#include "trioml/wire_format.hpp"

namespace trioml {

class AggregationProgram : public trio::PpeProgram {
 public:
  explicit AggregationProgram(TrioMlApp& app) : app_(app) {}

  trio::Action step(trio::ThreadContext& ctx) override;

 private:
  enum class State {
    kParse,
    kBlockLookup,
    kReadBlock,
    kJobLookup,
    kReadJob,
    kCapCheck,
    kRetryLookup,
    kInsert,
    kClaimReply,
    kAggregate,
    kTailChunk,
    kJoined,
    kAccumReply,
    kMaskReply,
    kDeleted,
    kJobForResult,
    kScratch,
    kResult,
    kFinish,
    kExit,
  };

  trio::Action do_step(trio::ThreadContext& ctx);
  trio::Action claim_source();
  trio::Action begin_aggregation(trio::ThreadContext& ctx);
  trio::Action next_tail_action(trio::ThreadContext& ctx);
  trio::Action finish(trio::ThreadContext& ctx, std::uint32_t instructions);
  /// Queues posted AddVec32s for the gradient bytes `carry` then `data`,
  /// which start at gradient byte `grad_byte_off`.
  void queue_add_slices(std::size_t grad_byte_off,
                        std::span<const std::uint8_t> carry,
                        std::span<const std::uint8_t> data,
                        std::uint32_t instructions);
  void queue_active_decrement();
  void append_carry(std::span<const std::uint8_t> bytes);

  TrioMlApp& app_;
  State state_ = State::kParse;
  // Actions queued ahead of the next do_step(). The most ever queued are
  // the add slices of the head's gradients: 136 bytes span at most four
  // 64-byte granules, the queue's first block.
  trio::ActionQueue pending_;

  TrioMlHeader hdr_;
  std::uint64_t key_ = 0;
  std::uint64_t record_addr_ = 0;
  std::uint64_t job_addr_ = 0;
  BlockRecord record_;
  JobRecord job_;
  bool have_job_ = false;
  std::uint8_t job_src_cnt_ = 0;  // slab scratch byte 63
  std::size_t grad_bytes_ = 0;
  std::size_t stream_pos_ = 0;   // gradient byte offset of the next add
  std::size_t tail_off_ = 0;     // tail bytes read so far
  std::size_t tail_total_ = 0;   // total tail bytes to read
  // Bytes straddling chunk boundaries: fewer than one 4-byte gradient.
  std::array<std::uint8_t, 3> carry_{};
  std::size_t carry_len_ = 0;
  std::uint8_t accum_src_cnt_ = 0;
  bool scratch_degraded_ = false;
  bool retried_create_ = false;
  std::optional<ResultBuilder> builder_;
};

/// Program factory: Trio-ML aggregation for UDP port 12000, the router's
/// standard forwarding path for everything else.
trio::ProgramFactory make_aggregation_factory(TrioMlApp& app);

/// True when the frame is a Trio-ML aggregation packet.
bool is_aggregation_frame(const net::Buffer& frame);

}  // namespace trioml
