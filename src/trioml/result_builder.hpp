// Shared result-generation sub-machine (paper Fig 10, right side): builds
// an aggregation Result packet by looping over the DMEM aggregation
// buffer in 256-byte chunks — each iteration reads a chunk into LMEM and
// writes it out to the new packet's tail in the Packet Buffer (PMEM) —
// then hands the finished packet to forwarding via the job's nexthop.
//
// Used by both the per-packet aggregation program (block complete) and
// the timer-thread straggler scan (block aged out, degraded result).
#pragma once

#include <cstdint>
#include <optional>

#include "trio/program.hpp"
#include "trioml/app.hpp"
#include "trioml/records.hpp"

namespace trioml {

class ResultBuilder {
 public:
  struct Inputs {
    std::uint64_t key = 0;          // hash key of the block
    std::uint64_t record_addr = 0;  // the block's slab
    BlockRecord record;             // block record (already read)
    JobRecord job;                  // job record (already read)
    std::uint8_t src_cnt = 0;       // contributors (slab scratch accumulator)
    bool degraded = false;
    std::uint8_t age_op = 0;
    bool final_block = false;
  };

  ResultBuilder(TrioMlApp& app, Inputs inputs);

  /// Advances the builder. Returns the next action while running; nullopt
  /// once the result packet has been emitted (and the slab freed).
  std::optional<trio::Action> step(trio::ThreadContext& ctx);

  bool done() const { return state_ == State::kDone; }

 private:
  enum class State { kReadChunk, kEmit, kDone };

  TrioMlApp& app_;
  Inputs in_;
  State state_ = State::kReadChunk;
  std::size_t grad_bytes_ = 0;
  std::size_t offset_ = 0;  // bytes of gradients copied so far
  net::Buffer frame_;
  bool chunk_outstanding_ = false;
};

}  // namespace trioml
